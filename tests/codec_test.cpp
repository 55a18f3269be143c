#include "src/common/codec.h"

#include <gtest/gtest.h>

namespace nt {
namespace {

TEST(CodecTest, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);

  Reader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, LittleEndianLayout) {
  Writer w;
  w.PutU32(0x01020304);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
}

TEST(CodecTest, VarBytesRoundTrip) {
  Writer w;
  Bytes payload = {9, 8, 7, 6};
  w.PutVar(payload);
  w.PutVar(Bytes{});
  w.PutString("hello");

  Reader r(w.bytes());
  EXPECT_EQ(r.GetVar(), payload);
  EXPECT_TRUE(r.GetVar().empty());
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, VarViewBorrowsTheInput) {
  Writer w;
  w.PutVar(Bytes{9, 8, 7});
  w.PutU32(1000);  // A length prefix far beyond the bytes that follow.
  const Bytes& in = w.bytes();

  Reader r(in);
  std::span<const uint8_t> view = r.GetVarView();
  EXPECT_EQ(view.data(), in.data() + 4);  // Points into the input: no copy.
  EXPECT_EQ(Bytes(view.begin(), view.end()), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.GetVarView().empty());  // Underflow: an empty view, sticky failure.
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, RawAndArray) {
  std::array<uint8_t, 4> arr = {1, 2, 3, 4};
  Writer w;
  w.PutRaw(arr);
  Reader r(w.bytes());
  auto back = r.GetArray<4>();
  EXPECT_EQ(back, arr);
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, UnderflowIsStickyAndSafe) {
  Writer w;
  w.PutU16(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.GetU32(), 0u);  // Underflow: zero.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU64(), 0u);  // Still zero, still failed.
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
}

TEST(CodecTest, VarUnderflowReturnsEmpty) {
  Writer w;
  w.PutU32(1000);  // Length prefix far beyond available bytes.
  w.PutU8(1);
  Reader r(w.bytes());
  EXPECT_TRUE(r.GetVar().empty());
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, AtEndRequiresFullConsumption) {
  Writer w;
  w.PutU32(1);
  w.PutU32(2);
  Reader r(w.bytes());
  r.GetU32();
  EXPECT_FALSE(r.AtEnd());
  r.GetU32();
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ReserveConstructor) {
  Writer w(1024);
  w.PutU64(5);
  EXPECT_EQ(w.size(), 8u);
  Bytes taken = w.Take();
  EXPECT_EQ(taken.size(), 8u);
}

}  // namespace
}  // namespace nt
