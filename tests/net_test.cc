// Tests for the message substrate: codecs, mailboxes, the fabric's
// routing/accounting, and concurrent producer/consumer behaviour.

#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "net/fabric.h"
#include "net/message.h"

namespace hierdb::net {
namespace {

/// `rows` rows of width `width`, every value distinct and some negative.
mt::Batch SomeRows(uint32_t rows, uint32_t width, int64_t base = 0) {
  mt::Batch b(width);
  for (uint32_t i = 0; i < rows * width; ++i) {
    b.data().push_back(base + static_cast<int64_t>(i) * (i % 2 ? -1 : 1));
  }
  return b;
}

// ----------------------------------------------------------- codecs ------

TEST(Codec, PrimitivesRoundTrip) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefULL);
  PutI64(&buf, -42);
  Reader r(buf);
  uint32_t a;
  uint64_t b;
  int64_t c;
  ASSERT_TRUE(r.GetU32(&a));
  ASSERT_TRUE(r.GetU64(&b));
  ASSERT_TRUE(r.GetI64(&c));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_EQ(c, -42);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ReaderUnderflowReturnsFalse) {
  std::vector<uint8_t> buf = {1, 2, 3};
  Reader r(buf);
  uint32_t v;
  EXPECT_FALSE(r.GetU32(&v));
}

TEST(Codec, BatchRoundTrip) {
  mt::Batch rows = SomeRows(100, 3, -50);
  auto decoded = DecodeBatch(EncodeBatch(rows));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().width(), 3u);
  EXPECT_EQ(decoded.value().rows(), 100u);
  EXPECT_EQ(decoded.value().data(), rows.data());
}

TEST(Codec, EmptyBatchRoundTrips) {
  for (uint32_t width : {0u, 4u}) {
    auto decoded = DecodeBatch(EncodeBatch(mt::Batch(width)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().width(), width);
    EXPECT_TRUE(decoded.value().empty());
  }
}

TEST(Codec, TruncatedBatchRejected) {
  auto buf = EncodeBatch(SomeRows(3, 2));
  buf.resize(buf.size() - 1);
  EXPECT_FALSE(DecodeBatch(buf).ok());
}

TEST(Codec, TrailingBytesRejected) {
  auto buf = EncodeBatch(SomeRows(3, 2));
  buf.push_back(0);
  EXPECT_FALSE(DecodeBatch(buf).ok());
}

// The value count is read off the wire: a count the payload cannot hold
// must come back as a typed error, never as an allocation of that size
// (an exception on a node loop thread would terminate the process).
TEST(Codec, ForgedValueCountRejected) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 1);                  // width 1
  PutU64(&buf, uint64_t{1} << 61);  // claims 2^61 values
  PutI64(&buf, 7);                  // holds one
  auto decoded = DecodeBatch(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("malformed row batch payload"),
            std::string::npos)
      << decoded.status().ToString();

  // The same forged count inside a stolen-work fragment.
  std::vector<uint8_t> work;
  PutU32(&work, 4);  // op
  PutU64(&work, 1);  // one fragment
  PutU32(&work, 9);  // its bucket
  work.insert(work.end(), buf.begin(), buf.end());
  PutU64(&work, 0);  // no activations
  EXPECT_FALSE(DecodeRowWork(work).ok());
}

RowWorkBundle SomeWork() {
  RowWorkBundle work;
  work.op = 3;
  work.fragments.push_back({9, SomeRows(4, 2, 1000)});
  work.fragments.push_back({11, mt::Batch(2)});
  work.activations.push_back({9, SomeRows(2, 3, 100)});
  work.activations.push_back({11, mt::Batch(3)});
  work.activations.push_back({9, SomeRows(5, 3, 200)});
  return work;
}

TEST(Codec, RowWorkBundleRoundTrip) {
  RowWorkBundle work = SomeWork();
  auto decoded = DecodeRowWork(EncodeRowWork(work));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const RowWorkBundle& got = decoded.value();
  EXPECT_EQ(got.op, 3u);
  ASSERT_EQ(got.fragments.size(), 2u);
  EXPECT_EQ(got.fragments[0].bucket, 9u);
  EXPECT_EQ(got.fragments[0].build_rows.data(),
            work.fragments[0].build_rows.data());
  EXPECT_EQ(got.fragments[1].bucket, 11u);
  EXPECT_TRUE(got.fragments[1].build_rows.empty());
  EXPECT_EQ(got.fragment_rows(), 4u);
  ASSERT_EQ(got.activations.size(), 3u);
  EXPECT_EQ(got.activations[0].rows.rows(), 2u);
  EXPECT_TRUE(got.activations[1].rows.empty());
  EXPECT_EQ(got.activations[1].rows.width(), 3u);
  EXPECT_EQ(got.activations[2].bucket, 9u);
  EXPECT_EQ(got.activations[2].rows.data(),
            work.activations[2].rows.data());
}

TEST(Codec, CorruptedRowWorkBundleRejected) {
  auto buf = EncodeRowWork(SomeWork());
  auto truncated = buf;
  truncated.resize(buf.size() / 2);
  EXPECT_FALSE(DecodeRowWork(truncated).ok());
  auto trailing = buf;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeRowWork(trailing).ok());
}

TEST(Codec, MsgTypeNamesAreDistinct) {
  EXPECT_STREQ(MsgTypeName(MsgType::kStarving), "Starving");
  EXPECT_STREQ(MsgTypeName(MsgType::kWork), "Work");
  EXPECT_STREQ(MsgTypeName(MsgType::kOpTerminated), "OpTerminated");
}

// ----------------------------------------------------------- mailbox -----

TEST(Mailbox, FifoOrder) {
  Mailbox mb;
  for (uint32_t i = 0; i < 5; ++i) {
    Message m;
    m.type = MsgType::kStarving;
    m.arg = i;
    mb.Push(std::move(m));
  }
  Message out;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(mb.TryPop(&out));
    EXPECT_EQ(out.arg, i);
  }
  EXPECT_FALSE(mb.TryPop(&out));
}

TEST(Mailbox, PopBlocksUntilPush) {
  Mailbox mb;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Message m;
    m.type = MsgType::kOffer;
    m.arg = 123;
    mb.Push(std::move(m));
  });
  Message out;
  ASSERT_TRUE(mb.Pop(&out));
  EXPECT_EQ(out.arg, 123u);
  producer.join();
}

TEST(Mailbox, CloseDrainsThenReturnsFalse) {
  Mailbox mb;
  Message m;
  m.arg = 1;
  mb.Push(std::move(m));
  mb.Close();
  Message out;
  EXPECT_TRUE(mb.Pop(&out));
  EXPECT_FALSE(mb.Pop(&out));
}

TEST(Mailbox, CloseWakesBlockedReceiver) {
  Mailbox mb;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mb.Close();
  });
  Message out;
  EXPECT_FALSE(mb.Pop(&out));
  closer.join();
}

// ------------------------------------------------------------ fabric -----

TEST(Fabric, RoutesToDestination) {
  Fabric fabric({.nodes = 3});
  Message m;
  m.type = MsgType::kStarving;
  m.arg = 42;
  ASSERT_TRUE(fabric.Send(0, 2, std::move(m)).ok());
  Message out;
  ASSERT_TRUE(fabric.mailbox(2).TryPop(&out));
  EXPECT_EQ(out.from, 0u);
  EXPECT_EQ(out.arg, 42u);
  EXPECT_EQ(fabric.mailbox(1).ApproxSize(), 0u);
}

TEST(Fabric, RejectsSelfSend) {
  Fabric fabric({.nodes = 2});
  EXPECT_FALSE(fabric.Send(1, 1, Message{}).ok());
}

TEST(Fabric, RejectsOutOfRangeNodes) {
  Fabric fabric({.nodes = 2});
  EXPECT_FALSE(fabric.Send(0, 5, Message{}).ok());
  EXPECT_FALSE(fabric.Send(5, 0, Message{}).ok());
}

TEST(Fabric, BroadcastReachesAllOthers) {
  Fabric fabric({.nodes = 4});
  Message m;
  m.type = MsgType::kStarving;
  ASSERT_TRUE(fabric.Broadcast(1, m).ok());
  EXPECT_EQ(fabric.mailbox(0).ApproxSize(), 1u);
  EXPECT_EQ(fabric.mailbox(1).ApproxSize(), 0u);
  EXPECT_EQ(fabric.mailbox(2).ApproxSize(), 1u);
  EXPECT_EQ(fabric.mailbox(3).ApproxSize(), 1u);
  EXPECT_EQ(fabric.stats().messages, 3u);
}

TEST(Fabric, AccountsBytesAndTypes) {
  Fabric fabric({.nodes = 2});
  Message m;
  m.type = MsgType::kWork;
  m.payload = EncodeBatch(SomeRows(10, 2));
  uint64_t expected = m.wire_bytes();
  ASSERT_TRUE(fabric.Send(0, 1, std::move(m)).ok());
  auto s = fabric.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.bytes, expected);
  EXPECT_EQ(s.by_type[static_cast<size_t>(MsgType::kWork)], 1u);
  EXPECT_EQ(s.by_type[static_cast<size_t>(MsgType::kStarving)], 0u);
}

TEST(Fabric, ConcurrentSendersAllDelivered) {
  Fabric fabric({.nodes = 4});
  constexpr int kPerSender = 500;
  std::vector<std::thread> senders;
  for (uint32_t from = 1; from < 4; ++from) {
    senders.emplace_back([&, from] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m;
        m.type = MsgType::kTupleBatch;
        m.arg = from * 10000 + i;
        ASSERT_TRUE(fabric.Send(from, 0, std::move(m)).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  uint64_t received = 0;
  Message out;
  while (fabric.mailbox(0).TryPop(&out)) ++received;
  EXPECT_EQ(received, 3u * kPerSender);
  EXPECT_EQ(fabric.stats().messages, 3u * kPerSender);
}

TEST(Fabric, CloseAllWakesReceivers) {
  Fabric fabric({.nodes = 2});
  std::thread receiver([&] {
    Message out;
    EXPECT_FALSE(fabric.mailbox(1).Pop(&out));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fabric.CloseAll();
  receiver.join();
}

}  // namespace
}  // namespace hierdb::net
