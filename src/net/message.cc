#include "net/message.h"

namespace hierdb::net {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kStarving: return "Starving";
    case MsgType::kOffer: return "Offer";
    case MsgType::kAcquire: return "Acquire";
    case MsgType::kWork: return "Work";
    case MsgType::kNoWork: return "NoWork";
    case MsgType::kEndOfQueuesAtNode: return "EndOfQueuesAtNode";
    case MsgType::kDrainConfirm: return "DrainConfirm";
    case MsgType::kOpTerminated: return "OpTerminated";
    case MsgType::kTupleBatch: return "TupleBatch";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "Unknown";
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

bool Reader::GetU32(uint32_t* v) {
  if (pos_ + 4 > buf_.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return true;
}

bool Reader::GetU64(uint64_t* v) {
  if (pos_ + 8 > buf_.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(buf_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return true;
}

bool Reader::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

std::vector<uint8_t> EncodeBatch(const mt::Batch& batch) {
  std::vector<uint8_t> out;
  out.reserve(12 + batch.data().size() * 8);
  PutU32(&out, batch.width());
  PutU64(&out, batch.data().size());
  for (int64_t v : batch.data()) PutI64(&out, v);
  return out;
}

namespace {

bool DecodeBatchFrom(Reader* r, mt::Batch* out) {
  uint32_t width;
  uint64_t n;
  if (!r->GetU32(&width) || !r->GetU64(&n)) return false;
  if (width == 0 && n > 0) return false;
  if (width > 0 && n % width != 0) return false;
  // The count is wire-supplied: reject it before reserving if the payload
  // cannot hold that many values.
  if (n > r->remaining() / sizeof(int64_t)) return false;
  *out = mt::Batch(width);
  out->data().reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t v;
    if (!r->GetI64(&v)) return false;
    out->data().push_back(v);
  }
  return true;
}

}  // namespace

Result<mt::Batch> DecodeBatch(const std::vector<uint8_t>& buf) {
  Reader r(buf);
  mt::Batch out;
  if (!DecodeBatchFrom(&r, &out) || !r.exhausted()) {
    return Status::Internal("malformed row batch payload");
  }
  return out;
}

std::vector<uint8_t> EncodeRowWork(const RowWorkBundle& work) {
  std::vector<uint8_t> out;
  PutU32(&out, work.op);
  PutU64(&out, work.fragments.size());
  for (const auto& f : work.fragments) {
    PutU32(&out, f.bucket);
    auto b = EncodeBatch(f.build_rows);
    out.insert(out.end(), b.begin(), b.end());
  }
  PutU64(&out, work.activations.size());
  for (const auto& a : work.activations) {
    PutU32(&out, a.bucket);
    auto b = EncodeBatch(a.rows);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

Result<RowWorkBundle> DecodeRowWork(const std::vector<uint8_t>& buf) {
  Reader r(buf);
  RowWorkBundle work;
  uint64_t nfrag, nact;
  if (!r.GetU32(&work.op) || !r.GetU64(&nfrag)) {
    return Status::Internal("malformed row work header");
  }
  for (uint64_t i = 0; i < nfrag; ++i) {
    RowFragment f;
    if (!r.GetU32(&f.bucket) || !DecodeBatchFrom(&r, &f.build_rows)) {
      return Status::Internal("malformed row work fragment");
    }
    work.fragments.push_back(std::move(f));
  }
  if (!r.GetU64(&nact)) return Status::Internal("malformed row work count");
  for (uint64_t i = 0; i < nact; ++i) {
    RowActivation a;
    if (!r.GetU32(&a.bucket) || !DecodeBatchFrom(&r, &a.rows)) {
      return Status::Internal("malformed row work activation");
    }
    work.activations.push_back(std::move(a));
  }
  if (!r.exhausted()) return Status::Internal("trailing bytes in row work");
  return work;
}

}  // namespace hierdb::net
