// The one batch contract every SetSource keeps (stream/set_source.h),
// checked on the in-memory, text and binary mmap sources at
// scan_threads 1 and 4:
//  * a scan delivers non-empty batches whose ids run 0..m-1 and whose
//    contents equal the CSR; in-memory and text batches close at the
//    first set that reaches kBatchMaxSets sets or kBatchMaxWords words;
//  * a token that has already fired fails the scan with
//    kDeadlineExceededError and delivers no set;
//  * a corrupt set fails the scan and delivers no set of its batch;
//  * the error then sticks;
//  * no set is larger than the source's max_set_size(): the longest row
//    in memory, n for text, the footer bound for the binary file (which
//    rejects a size varint above it as a corrupt set);
//  * a scan under a ScanFilter delivers every named set, in id order,
//    with its own elements. The binary decoder's first scan delivers
//    every set whatever the filter, and its later scans exactly the
//    named ones, chunk-edge sets and a filter naming nothing included;
//    a corrupt body the filter would skip still fails the first scan
//    with the unfiltered diagnostic.
//
// The instance is shaped so the in-memory and text sources close one
// batch on the word bound and one on the set bound, and the binary file
// spans several decode chunks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "setsystem/binary_io.h"
#include "setsystem/set_system.h"
#include "stream/mmap_set_source.h"
#include "stream/pipelined_scan.h"
#include "stream/set_source.h"
#include "stream/set_stream.h"
#include "util/bitset.h"
#include "util/cancel_token.h"

namespace streamcover {
namespace {

constexpr uint32_t kN = 1000;
constexpr uint32_t kM = 100000;
constexpr uint32_t kWideSets = 27000;  // kWideSize elements each, then 1
constexpr uint32_t kWideSize = 40;     // also the longest row
constexpr uint32_t kCorruptSet = 50000;

SetSystem ContractSystem() {
  SetSystem::Builder builder(kN);
  std::vector<uint32_t> elems;
  for (uint32_t s = 0; s < kM; ++s) {
    elems.clear();
    if (s < kWideSets) {
      for (uint32_t j = 0; j < kWideSize; ++j) {
        elems.push_back((s * 7 + j * 25) % kN);
      }
    } else {
      elems.push_back(s % kN);
    }
    builder.AddSet(elems);
  }
  return std::move(builder).Build();
}

/// Text format, with set `corrupt` (if < kM) naming an element out of
/// range.
void WriteText(const SetSystem& system, const std::string& path,
               uint32_t corrupt) {
  std::ofstream out(path);
  out << "setcover " << system.num_elements() << " " << system.num_sets()
      << "\n";
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    if (s == corrupt) {
      out << "1 " << system.num_elements() << "\n";
      continue;
    }
    const std::span<const uint32_t> set = system.GetSet(s);
    out << set.size();
    for (uint32_t e : set) out << " " << e;
    out << "\n";
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

binfmt::BinaryLayout LayoutOf(const std::string& bytes) {
  binfmt::BinaryLayout layout;
  std::string error;
  EXPECT_TRUE(binfmt::ValidateBinaryLayout(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), &layout,
      &error))
      << error;
  return layout;
}

/// First set of the in-memory / text batch that holds set `s`.
uint32_t BoundedBatchStart(const SetSystem& system, uint32_t s) {
  uint32_t start = 0;
  size_t sets = 0, words = 0;
  for (uint32_t t = 0; t < s; ++t) {
    ++sets;
    words += system.GetSet(t).size();
    if (BatchFull(sets, words)) {
      start = t + 1;
      sets = words = 0;
    }
  }
  return start;
}

enum class Kind { kMemory, kText, kMmap };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMemory:
      return "memory";
    case Kind::kText:
      return "text";
    case Kind::kMmap:
      return "mmap";
  }
  return "?";
}

class ScanContractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new SetSystem(ContractSystem());
    // Per-process names: ctest runs each case in its own process, in
    // parallel.
    const std::string dir = ::testing::TempDir() + "/scan_contract_" +
                            std::to_string(::getpid()) + "_";
    text_ = new std::string(dir + "good.txt");
    bad_text_ = new std::string(dir + "bad.txt");
    bin_ = new std::string(dir + "good.bin");
    bad_bin_ = new std::string(dir + "bad.bin");
    WriteText(*system_, *text_, kM);
    WriteText(*system_, *bad_text_, kCorruptSet);
    std::string error;
    ASSERT_TRUE(WriteBinarySetSystem(*system_, *bin_, &error)) << error;
    // Turn set kCorruptSet's whole slot into continuation bytes: its
    // size varint never terminates inside the slot.
    std::string bytes = ReadBytes(*bin_);
    const binfmt::BinaryLayout layout = LayoutOf(bytes);
    for (uint64_t i = layout.SetOffset(kCorruptSet);
         i < layout.SetOffset(kCorruptSet + 1); ++i) {
      bytes[i] = static_cast<char>(0xFF);
    }
    std::ofstream(*bad_bin_, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static void TearDownTestSuite() {
    for (const std::string* path : {text_, bad_text_, bin_, bad_bin_}) {
      std::remove(path->c_str());
      delete path;
    }
    delete system_;
  }

  static std::unique_ptr<SetSource> Open(Kind kind, bool corrupt,
                                         uint32_t scan_threads) {
    std::unique_ptr<SetSource> source;
    std::string error;
    switch (kind) {
      case Kind::kMemory:
        source = std::make_unique<InMemorySetSource>(system_);
        break;
      case Kind::kText:
        source = OpenDiskSetSource(corrupt ? *bad_text_ : *text_, &error);
        break;
      case Kind::kMmap:
        source = OpenDiskSetSource(corrupt ? *bad_bin_ : *bin_, &error);
        break;
    }
    EXPECT_NE(source, nullptr) << error;
    if (source != nullptr) source->set_scan_threads(scan_threads);
    return source;
  }

  /// Every (source, scan_threads) pair the contract covers.
  template <typename Fn>
  static void ForEachConfig(Fn&& fn) {
    for (Kind kind : {Kind::kMemory, Kind::kText, Kind::kMmap}) {
      for (uint32_t scan_threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(KindName(kind)) +
                     " scan_threads=" + std::to_string(scan_threads));
        fn(kind, scan_threads);
      }
    }
  }

  static SetSystem* system_;
  static std::string* text_;
  static std::string* bad_text_;
  static std::string* bin_;
  static std::string* bad_bin_;
};

SetSystem* ScanContractTest::system_ = nullptr;
std::string* ScanContractTest::text_ = nullptr;
std::string* ScanContractTest::bad_text_ = nullptr;
std::string* ScanContractTest::bin_ = nullptr;
std::string* ScanContractTest::bad_bin_ = nullptr;

TEST_F(ScanContractTest, BatchesCarryTheCsrInOrderWithinBounds) {
  ForEachConfig([](Kind kind, uint32_t scan_threads) {
    std::unique_ptr<SetSource> source = Open(kind, false, scan_threads);
    ASSERT_NE(source, nullptr);
    uint32_t next = 0;
    std::vector<size_t> batch_sets, batch_words, last_set_words;
    ASSERT_TRUE(source->ScanBatches([&](std::span<const SetView> sets) {
      ASSERT_FALSE(sets.empty());
      size_t words = 0;
      for (const SetView& set : sets) {
        ASSERT_EQ(set.id, next++) << "out-of-order delivery";
        ASSERT_TRUE(std::ranges::equal(set.elems, system_->GetSet(set.id)))
            << "set " << set.id;
        words += set.size();
      }
      batch_sets.push_back(sets.size());
      batch_words.push_back(words);
      last_set_words.push_back(sets.back().size());
    })) << source->error();
    EXPECT_EQ(next, kM);
    EXPECT_EQ(source->scans(), 1u);
    ASSERT_GT(batch_sets.size(), 2u);
    if (kind == Kind::kMmap) return;  // batches are decode chunks
    for (size_t b = 0; b < batch_sets.size(); ++b) {
      // Closed at the first set that filled it, and only then.
      EXPECT_FALSE(BatchFull(batch_sets[b] - 1,
                             batch_words[b] - last_set_words[b]))
          << "batch " << b;
      if (b + 1 < batch_sets.size()) {
        EXPECT_TRUE(BatchFull(batch_sets[b], batch_words[b])) << "batch " << b;
      }
    }
    // One batch closes on each bound.
    EXPECT_GE(batch_words[0], kBatchMaxWords);
    EXPECT_EQ(batch_sets[1], kBatchMaxSets);
  });
}

TEST_F(ScanContractTest, FiredTokenDeliversNothingAndSticks) {
  ForEachConfig([](Kind kind, uint32_t scan_threads) {
    std::unique_ptr<SetSource> source = Open(kind, false, scan_threads);
    ASSERT_NE(source, nullptr);
    CancelToken expired = CancelToken::AfterMillis(0);
    ASSERT_TRUE(expired.cancelled());
    source->set_cancel(&expired);
    size_t delivered = 0;
    auto count = [&](std::span<const SetView> sets) {
      delivered += sets.size();
    };
    EXPECT_FALSE(source->ScanBatches(count));
    EXPECT_EQ(source->error(), kDeadlineExceededError);
    EXPECT_EQ(delivered, 0u);
    source->set_cancel(nullptr);
    EXPECT_FALSE(source->ScanBatches(count));
    EXPECT_EQ(source->error(), kDeadlineExceededError);
    EXPECT_EQ(delivered, 0u);
  });
}

TEST_F(ScanContractTest, CorruptSetDropsItsWholeBatchAndSticks) {
  const std::string bytes = ReadBytes(*bin_);
  const binfmt::BinaryLayout layout = LayoutOf(bytes);
  uint32_t chunk_start = 0;
  for (const binfmt::ScanChunk& chunk :
       binfmt::BuildChunkPlan(layout, kDefaultScanChunkBytes)) {
    if (chunk.first_set <= kCorruptSet) chunk_start = chunk.first_set;
  }
  const uint32_t bounded_start = BoundedBatchStart(*system_, kCorruptSet);
  ASSERT_GT(chunk_start, 0u);
  ASSERT_GT(bounded_start, 0u);

  for (Kind kind : {Kind::kText, Kind::kMmap}) {
    for (uint32_t scan_threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(KindName(kind)) +
                   " scan_threads=" + std::to_string(scan_threads));
      std::unique_ptr<SetSource> source = Open(kind, true, scan_threads);
      ASSERT_NE(source, nullptr);
      uint32_t delivered = 0;
      auto count = [&](std::span<const SetView> sets) {
        for (const SetView& set : sets) EXPECT_EQ(set.id, delivered++);
      };
      EXPECT_FALSE(source->ScanBatches(count));
      EXPECT_EQ(delivered, kind == Kind::kMmap ? chunk_start : bounded_start);
      const std::string error = source->error();
      if (kind == Kind::kMmap) {
        EXPECT_EQ(error, *bad_bin_ + ": corrupt set " +
                             std::to_string(kCorruptSet) +
                             ": bad size varint");
      } else {
        EXPECT_NE(error.find("out of range in set " +
                             std::to_string(kCorruptSet)),
                  std::string::npos)
            << error;
      }
      delivered = 0;
      EXPECT_FALSE(source->ScanBatches(count));
      EXPECT_EQ(delivered, 0u);
      EXPECT_EQ(source->error(), error);
    }
  }
}

TEST_F(ScanContractTest, SetSizeBoundHoldsOnEverySource) {
  ForEachConfig([](Kind kind, uint32_t scan_threads) {
    std::unique_ptr<SetSource> source = Open(kind, false, scan_threads);
    ASSERT_NE(source, nullptr);
    const uint32_t bound = source->max_set_size();
    switch (kind) {
      case Kind::kMemory:
        EXPECT_EQ(bound, kWideSize);
        break;
      case Kind::kText:
        EXPECT_EQ(bound, kN);
        break;
      case Kind::kMmap:
        EXPECT_GE(bound, kWideSize);
        EXPECT_LE(bound, kN);
        break;
    }
    std::string error;
    std::unique_ptr<SetSource> fork = source->Fork(&error);
    ASSERT_NE(fork, nullptr) << error;
    EXPECT_EQ(fork->max_set_size(), bound);
    uint32_t longest = 0;
    ASSERT_TRUE(source->ScanBatches([&](std::span<const SetView> sets) {
      for (const SetView& set : sets) {
        longest = std::max(longest, static_cast<uint32_t>(set.size()));
      }
    })) << source->error();
    EXPECT_EQ(longest, kWideSize);
  });

  // No sets: the in-memory and binary bounds are 0.
  const SetSystem empty = SetSystem::Builder(kN).Build();
  EXPECT_EQ(empty.max_set_size(), 0u);
  EXPECT_EQ(InMemorySetSource(&empty).max_set_size(), 0u);
  const std::string path = ::testing::TempDir() + "/scan_contract_" +
                           std::to_string(::getpid()) + "_empty.bin";
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(empty, path, &error)) << error;
  std::optional<MmapSetSource> mapped = MmapSetSource::Open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(mapped->max_set_size(), 0u);
  std::remove(path.c_str());
}

/// Scans `source` once under `filter` through a SetStream, checking
/// that ids ascend and every delivered set carries its CSR elements;
/// returns the delivered ids.
std::vector<uint32_t> FilteredScan(SetSource& source, const SetSystem& system,
                                   const ScanFilter* filter) {
  SetStream stream(&source);
  std::vector<uint32_t> ids;
  EXPECT_TRUE(stream.ForEachBatch(
      [&](std::span<const SetView> sets) {
        for (const SetView& set : sets) {
          EXPECT_TRUE(ids.empty() || set.id > ids.back())
              << "out-of-order delivery";
          EXPECT_TRUE(std::ranges::equal(set.elems, system.GetSet(set.id)))
              << "set " << set.id;
          ids.push_back(set.id);
        }
      },
      filter))
      << source.error();
  return ids;
}

TEST_F(ScanContractTest, FilteredScansDeliverTheNamedSets) {
  const std::string bytes = ReadBytes(*bin_);  // the layout points into it
  const binfmt::BinaryLayout layout = LayoutOf(bytes);
  const std::vector<binfmt::ScanChunk> chunks =
      binfmt::BuildChunkPlan(layout, kDefaultScanChunkBytes);
  ASSERT_GT(chunks.size(), 3u);
  // Named by id: both edges of every chunk, a set of each size, and
  // neighbours of the wide/narrow boundary.
  DynamicBitset listed(kM);
  for (const binfmt::ScanChunk& chunk : chunks) {
    listed.Set(chunk.first_set);
    listed.Set(chunk.first_set + chunk.set_count - 1);
  }
  for (uint32_t s : {7u, kWideSets - 1, kWideSets, kCorruptSet}) {
    listed.Set(s);
  }
  const DynamicBitset none(kM);
  const std::vector<ScanFilter> filters = {
      {2, &listed},           // every wide set plus the listed ids
      {UINT32_MAX, &listed},  // the listed ids alone
      {kWideSize, nullptr},   // a size floor alone
      {UINT32_MAX, &none},    // nothing
      {UINT32_MAX, nullptr},  // nothing
  };
  std::vector<uint32_t> every(kM);
  for (uint32_t s = 0; s < kM; ++s) every[s] = s;

  ForEachConfig([&](Kind kind, uint32_t scan_threads) {
    std::unique_ptr<SetSource> source = Open(kind, false, scan_threads);
    ASSERT_NE(source, nullptr);
    // A first scan delivers every set, even under a filter naming none.
    EXPECT_EQ(FilteredScan(*source, *system_, &filters.back()), every);
    for (const ScanFilter& filter : filters) {
      SCOPED_TRACE("min_size=" + std::to_string(filter.min_size) +
                   (filter.ids == &listed ? " listed ids" : ""));
      std::vector<uint32_t> named;
      for (uint32_t s = 0; s < kM; ++s) {
        if (filter.Names(s, system_->GetSet(s).size())) named.push_back(s);
      }
      const std::vector<uint32_t> got =
          FilteredScan(*source, *system_, &filter);
      if (kind == Kind::kMmap) {
        EXPECT_EQ(got, named);  // every other body skipped
      } else {
        EXPECT_EQ(got, every);  // these sources ignore filters
      }
    }
    // The filter lasts one scan: a plain scan delivers every set again.
    EXPECT_EQ(FilteredScan(*source, *system_, nullptr), every);
  });
}

TEST_F(ScanContractTest, CorruptBodyTheFilterWouldSkipFailsTheFirstScan) {
  // Set kCorruptSet has one element, so a size floor of 2 would skip
  // it. Its size varint stays valid; its element varint runs past the
  // slot. The chunk has never decoded cleanly, so it is decoded anyway.
  std::string bytes = ReadBytes(*bin_);
  const binfmt::BinaryLayout layout = LayoutOf(bytes);
  ASSERT_EQ(system_->GetSet(kCorruptSet).size(), 1u);
  ASSERT_EQ(layout.SetOffset(kCorruptSet + 1) - layout.SetOffset(kCorruptSet),
            2u);
  bytes[layout.SetOffset(kCorruptSet) + 1] = static_cast<char>(0x80);
  const std::string path = ::testing::TempDir() + "/scan_contract_" +
                           std::to_string(::getpid()) + "_bad_body.bin";
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  uint32_t chunk_start = 0;
  for (const binfmt::ScanChunk& chunk :
       binfmt::BuildChunkPlan(layout, kDefaultScanChunkBytes)) {
    if (chunk.first_set <= kCorruptSet) chunk_start = chunk.first_set;
  }
  const ScanFilter filter{2, nullptr};
  for (uint32_t scan_threads : {1u, 4u}) {
    SCOPED_TRACE(scan_threads);
    std::string error;
    std::unique_ptr<SetSource> source = OpenDiskSetSource(path, &error);
    ASSERT_NE(source, nullptr) << error;
    source->set_scan_threads(scan_threads);
    SetStream stream(source.get());
    uint32_t delivered = 0;
    auto count = [&](std::span<const SetView> sets) {
      for (const SetView& set : sets) EXPECT_EQ(set.id, delivered++);
    };
    EXPECT_FALSE(stream.ForEachBatch(count, &filter));
    EXPECT_EQ(delivered, chunk_start);
    EXPECT_EQ(source->error(), path + ": corrupt set " +
                                   std::to_string(kCorruptSet) +
                                   ": truncated body");
    delivered = 0;
    EXPECT_FALSE(stream.ForEachBatch(count, &filter));
    EXPECT_EQ(delivered, 0u);
  }
  std::remove(path.c_str());
}

TEST_F(ScanContractTest, SizeAboveTheFooterBoundIsACorruptSet) {
  // Rewrite a longest set's size varint to bound + 1 (still <= n): its
  // elements would run out before the claimed size, but the decoder
  // refuses the size itself, so no scan can deliver a set above the
  // bound the solvers were promised.
  std::string bytes = ReadBytes(*bin_);
  const binfmt::BinaryLayout layout = LayoutOf(bytes);
  const uint64_t bound = layout.max_set_size;
  ASSERT_LT(bound + 1, 0x80u) << "needs a one-byte size varint";
  ASSERT_LE(bound + 1, kN);
  uint32_t target = 0;
  for (uint32_t s = kWideSets / 2; s < kWideSets; ++s) {
    if (layout.SetOffset(s + 1) - layout.SetOffset(s) == bound + 1) {
      target = s;
      break;
    }
  }
  ASSERT_GT(target, 0u) << "no set spans the bound";
  ASSERT_EQ(size_t{static_cast<uint8_t>(bytes[layout.SetOffset(target)])},
            system_->GetSet(target).size());
  bytes[layout.SetOffset(target)] = static_cast<char>(bound + 1);
  const std::string path = ::testing::TempDir() + "/scan_contract_" +
                           std::to_string(::getpid()) + "_oversize.bin";
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  uint32_t chunk_start = 0;
  for (const binfmt::ScanChunk& chunk :
       binfmt::BuildChunkPlan(layout, kDefaultScanChunkBytes)) {
    if (chunk.first_set <= target) chunk_start = chunk.first_set;
  }
  ASSERT_GT(chunk_start, 0u);

  for (uint32_t scan_threads : {1u, 4u}) {
    SCOPED_TRACE(scan_threads);
    std::string error;
    std::optional<MmapSetSource> source = MmapSetSource::Open(path, &error);
    ASSERT_TRUE(source.has_value()) << error;
    EXPECT_EQ(source->max_set_size(), bound);
    source->set_scan_threads(scan_threads);
    uint32_t delivered = 0;
    EXPECT_FALSE(source->ScanBatches([&](std::span<const SetView> sets) {
      for (const SetView& set : sets) EXPECT_EQ(set.id, delivered++);
    }));
    EXPECT_EQ(delivered, chunk_start) << "a set of the failing batch leaked";
    EXPECT_EQ(source->error(), path + ": corrupt set " +
                                   std::to_string(target) +
                                   ": bad size varint");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamcover
