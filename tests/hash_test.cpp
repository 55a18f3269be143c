// Known-answer and property tests for SHA-256 / SHA-512, including the
// runtime-derived FIPS 180-4 constants (pinned by the NIST vectors), and a
// differential test of the SHA-NI SHA-256 kernel against the portable one.
#include "src/crypto/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"

namespace nt {
namespace {

// Deterministic test message: byte i is (7i + 1) mod 256.
Bytes PatternMessage(size_t len) {
  Bytes msg(len);
  for (size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  return msg;
}

TEST(Sha256Test, NistVectorEmpty) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlocks) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 300; ++i) {
    msg.push_back(static_cast<char>(i % 251));
  }
  // Split the message at every boundary; digest must not depend on chunking.
  Digest expected = Sha256::Hash(msg);
  for (size_t split = 0; split <= msg.size(); split += 17) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256Test, LengthBoundaryPadding) {
  // 55, 56, 63, 64, 65 bytes straddle the padding boundary.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 127u, 128u}) {
    std::string msg(len, 'x');
    Digest once = Sha256::Hash(msg);
    Sha256 h;
    for (char c : msg) {
      h.Update(std::string(1, c));
    }
    EXPECT_EQ(h.Finalize(), once) << "len " << len;
  }
}

TEST(Sha256Test, PaddingBoundaryKnownAnswers) {
  // Lengths around the 56-byte length-field boundary and the block edge.
  // Expected values computed independently (python3 hashlib.sha256).
  const std::vector<std::pair<size_t, std::string>> vectors = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "16fa57a0a3423a715d594516339f36189d6b5f93754a9714fef202616a9fabfe"},
      {56, "c37b44e5f1b18554b36966f4f8e08bfbf3164c4b6c10374d12d89850892073c5"},
      {63, "bbba992d2c85af960fb2987a1fd05e0aa82a3db3c740dd8982a9e273b75e36a3"},
      {64, "66bd4633ed6f71c4ecfa4763bf7ba1c8ec7612de9aa6c0578a7b675207c71e0b"},
      {65, "9f7dc47107b750a1f3d35db5d9547f24ef40da5b731b9540d4f43710a154f6c9"},
      {119, "a3ed307b730fa77c07531300c6e4a282330011d4d4caf6bb7b63ae05950f4b66"},
      {120, "8e3b15d9fea7472655aa069620b7f8c2e55ee1499f763200a7515fe826e99d20"},
  };
  for (const auto& [len, hex] : vectors) {
    EXPECT_EQ(DigestHex(Sha256::Hash(PatternMessage(len))), hex) << "len " << len;
  }
}

TEST(Sha256Test, BlocksProcessedCountsCompressions) {
  // Padding adds 9 bytes (0x80 + 64-bit length), so 55 bytes fit one block
  // and 56 need two.
  const std::vector<std::pair<size_t, uint64_t>> cases = {
      {0, 1}, {55, 1}, {56, 2}, {64, 2}, {119, 2}, {120, 3}};
  for (const auto& [len, blocks] : cases) {
    Bytes msg = PatternMessage(len);
    const uint64_t before = Sha256::blocks_processed();
    Sha256::Hash(msg);
    EXPECT_EQ(Sha256::blocks_processed() - before, blocks) << "len " << len;
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::Hash("abc"), Sha256::Hash("abd"));
  EXPECT_NE(Sha256::Hash("abc"), Sha256::Hash(std::string_view("abc\0", 4)));
}

// ------------------------------------------- SHA-256 kernels, differential

using Kernel = Sha256::Kernel;

// Hashes `msg` with kernel `k`, feeding Update `chunk` bytes at a time (all
// at once when chunk is 0).
Digest HashWith(Kernel k, const Bytes& msg, size_t chunk = 0) {
  Sha256 h(k);
  if (chunk == 0) {
    h.Update(msg);
  } else {
    for (size_t at = 0; at < msg.size(); at += chunk) {
      h.Update(msg.data() + at, std::min(chunk, msg.size() - at));
    }
  }
  return h.Finalize();
}

#define SKIP_WITHOUT_SHA_NI()                                                          \
  if (!Sha256::Supported(Kernel::kShaNi)) {                                            \
    GTEST_SKIP() << "this CPU lacks the SHA-NI kernel (CPUID sha + sse4.1, x86-64 only)"; \
  }

TEST(Sha256KernelTest, DispatcherPicksShaNiExactlyWhenCpuidReportsIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool cpuid = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  const bool cpuid = false;
#endif
  EXPECT_EQ(Sha256::Supported(Kernel::kShaNi), cpuid);
  EXPECT_EQ(Sha256::dispatched_kernel(), cpuid ? Kernel::kShaNi : Kernel::kPortable);
  EXPECT_TRUE(Sha256::Supported(Kernel::kPortable));
}

TEST(Sha256KernelTest, NistVectorsOnEveryKernelWithEqualBlockCounts) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  std::vector<Kernel> kernels = {Kernel::kPortable};
  if (Sha256::Supported(Kernel::kShaNi)) {
    kernels.push_back(Kernel::kShaNi);
  }
  for (const auto& [msg, hex] : vectors) {
    const Bytes bytes(msg.begin(), msg.end());
    std::vector<uint64_t> blocks;
    for (Kernel k : kernels) {
      const uint64_t before = Sha256::blocks_processed();
      EXPECT_EQ(DigestHex(HashWith(k, bytes)), hex)
          << "kernel " << static_cast<int>(k) << ", len " << msg.size();
      blocks.push_back(Sha256::blocks_processed() - before);
    }
    // Padding adds 9 bytes, rounded up to whole blocks.
    for (uint64_t b : blocks) {
      EXPECT_EQ(b, (msg.size() + 9 + 63) / 64) << "len " << msg.size();
    }
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableAtEveryLengthUpTo1100) {
  SKIP_WITHOUT_SHA_NI();
  const Bytes msg = PatternMessage(1100);
  for (size_t len = 0; len <= msg.size(); ++len) {
    const Bytes prefix(msg.begin(), msg.begin() + len);
    ASSERT_EQ(HashWith(Kernel::kShaNi, prefix), HashWith(Kernel::kPortable, prefix)) << "len " << len;
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableWhenStreamedInChunks) {
  SKIP_WITHOUT_SHA_NI();
  for (size_t len : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u, 1100u}) {
    const Bytes msg = PatternMessage(len);
    const Digest reference = HashWith(Kernel::kPortable, msg);
    for (size_t chunk : {1u, 3u, 63u, 64u, 65u}) {
      EXPECT_EQ(HashWith(Kernel::kShaNi, msg, chunk), reference)
          << "len " << len << ", chunk " << chunk;
      EXPECT_EQ(HashWith(Kernel::kPortable, msg, chunk), reference)
          << "len " << len << ", chunk " << chunk;
    }
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnMultiBlockInputs) {
  SKIP_WITHOUT_SHA_NI();
  // Pseudo-random bytes (xorshift), so every message word and carry path is
  // exercised, at sizes that hand the kernel long runs of whole blocks.
  Bytes msg(256 * 1024 + 37);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint8_t& b : msg) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 32);
  }
  for (size_t len : {128u, 4096u, 65536u, 65536u + 55u, 256u * 1024u + 37u}) {
    const Bytes prefix(msg.begin(), msg.begin() + len);
    const uint64_t before_hw = Sha256::blocks_processed();
    const Digest hw = HashWith(Kernel::kShaNi, prefix);
    const uint64_t hw_blocks = Sha256::blocks_processed() - before_hw;
    const uint64_t before_sw = Sha256::blocks_processed();
    const Digest sw = HashWith(Kernel::kPortable, prefix);
    EXPECT_EQ(hw, sw) << "len " << len;
    EXPECT_EQ(hw_blocks, Sha256::blocks_processed() - before_sw) << "len " << len;
    // Unaligned start: the kernel loads with no alignment assumption.
    const Bytes shifted(msg.begin() + 1, msg.begin() + 1 + (len - 1));
    EXPECT_EQ(HashWith(Kernel::kShaNi, shifted, 65), HashWith(Kernel::kPortable, shifted))
        << "len " << len - 1 << " from offset 1";
  }
}

TEST(Sha512Test, NistVectorEmpty) {
  auto out = Sha512::Hash(nullptr, 0);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, NistVectorAbc) {
  const char* msg = "abc";
  auto out = Sha512::Hash(reinterpret_cast<const uint8_t*>(msg), 3);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, NistVectorTwoBlocks) {
  const char* msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  auto out = Sha512::Hash(reinterpret_cast<const uint8_t*>(msg), 112);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, StreamingMatchesOneShot) {
  Bytes msg(777);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 7);
  }
  auto expected = Sha512::Hash(msg);
  Sha512 h;
  h.Update(msg.data(), 100);
  h.Update(msg.data() + 100, 28);
  h.Update(msg.data() + 128, msg.size() - 128);
  EXPECT_EQ(h.Finalize(), expected);
}

TEST(Sha512Test, PaddingBoundaryKnownAnswers) {
  // Lengths around the 112-byte length-field boundary and the block edge.
  // Expected values computed independently (python3 hashlib.sha512).
  const std::vector<std::pair<size_t, std::string>> vectors = {
      {111,
       "3dfde1184fd99f233f98be4250f4edb9b535157909b668334370742204d97e04"
       "7f1fd6a74bb5ba447f337286f421d9af957811f7ef62a458771457da126cb65e"},
      {112,
       "acc96c509e6d01787330a4c6a241e2cda9dcc2529dbe4288dbbcc3812133233c"
       "4698831127cf6ed0b333632b22715a5ce53a0a1002a684367b71c98aa6d1d900"},
      {127,
       "a315910cb7812a8e66d87c0c49a42d93dbe97bf0240ee995792292c529256d93"
       "f40199a59b3f6266343f302651fea1589e2040a2f3756126d3fe4f421a72079d"},
      {128,
       "31f33a52b36dc2e70c83b604fa999a5cabf33bf70e4556fbed7bff10870c1b7b"
       "241dd3f15d1ade24599f068fc58ab51e0028b0f0c98895c23358e8dee032ce06"},
      {129,
       "748fec3280c9165199f8c260e87eea61cbbe1b23ef1567c220df65b37e3fcced"
       "15fa7f63c9a381fde38ddd4eb2b09b67f77d03c5e0a639b487e8c48343590c97"},
  };
  for (const auto& [len, hex] : vectors) {
    auto out = Sha512::Hash(PatternMessage(len));
    EXPECT_EQ(ToHex(out.data(), out.size()), hex) << "len " << len;
  }
}

TEST(DigestLessTest, MatchesLexicographicOrder) {
  // Digests that differ in each byte position, including ties in the
  // leading 64-bit words and bytes >= 0x80 (a signed compare would misorder).
  std::vector<Digest> digests;
  for (size_t pos : {0u, 7u, 8u, 15u, 16u, 24u, 31u}) {
    for (uint8_t v : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
      Digest d{};
      d.fill(0x5a);
      d[pos] = v;
      digests.push_back(d);
    }
  }
  digests.push_back(Sha256::Hash("a"));
  digests.push_back(Sha256::Hash("b"));
  for (const Digest& a : digests) {
    for (const Digest& b : digests) {
      EXPECT_EQ(DigestLess{}(a, b), a < b) << DigestHex(a) << " vs " << DigestHex(b);
    }
  }
  std::set<Digest> by_bytes(digests.begin(), digests.end());
  std::set<Digest, DigestLess> by_words(digests.begin(), digests.end());
  EXPECT_TRUE(std::equal(by_bytes.begin(), by_bytes.end(), by_words.begin(), by_words.end()));
}

TEST(DigestTest, HexHelpers) {
  Digest d = Sha256::Hash("abc");
  EXPECT_EQ(DigestHex(d).size(), 64u);
  EXPECT_EQ(DigestShort(d), DigestHex(d).substr(0, 8));
}

}  // namespace
}  // namespace nt
