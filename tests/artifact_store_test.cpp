// Persistent artifact store: serialize round-trip, every corruption class
// degrading to a clean miss (never a crash, never a wrong artifact),
// concurrent-writer benignity, oldest-first eviction, and the service-level
// acceptance: a killed-and-restarted server answers every warm request from
// disk with zero recompiles.
#include "service/artifact_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/compile_service.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"

namespace {

using namespace mat2c;
using service::ArtifactStore;
using service::CacheKey;
using service::CachedResult;
using service::CompileRequest;
using service::CompileService;

namespace fs = std::filesystem;

/// Fresh per-test directory under the system temp dir, removed on teardown.
class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mat2c_store_test." + std::to_string(static_cast<unsigned>(::getpid())) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

CacheKey testKey(const std::string& tag = "k") {
  CacheKey key;
  key.canonical = "canonical:" + tag;
  key.hash = fnv1a64(key.canonical);
  return key;
}

CachedResult testResult(const std::string& cCode = "/* generated */\n") {
  CachedResult::Meta meta;
  meta.isaName = "dspx";
  meta.loopsVectorized = 2;
  meta.idiomRewrites = 1;
  meta.degraded = {"licm", "fuse"};
  return CachedResult(cCode, std::move(meta), "unrollMaxTrip=16", 22, 119338.0, 430346.0);
}

CompileRequest kernelRequest(int variant) {
  CompileRequest r;
  r.id = "k" + std::to_string(variant);
  r.source = "function y = f(x)\ny = x * " + std::to_string(variant + 2) + ";\nend\n";
  r.entry = "f";
  r.args = {sema::ArgSpec::row(16)};
  r.options = CompileOptions::proposed();
  return r;
}

// --- format ----------------------------------------------------------------

TEST_F(ArtifactStoreTest, SerializeRoundTripPreservesEveryField) {
  CacheKey key = testKey();
  CachedResult original = testResult();
  std::string bytes = ArtifactStore::serialize(key, original);

  std::string error;
  auto loaded = ArtifactStore::deserialize(bytes, key, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_FALSE(loaded->hasUnit());  // store entries answer without LIR
  EXPECT_EQ(loaded->cCode, original.cCode);
  EXPECT_EQ(loaded->isaName, original.isaName);
  EXPECT_EQ(loaded->loopsVectorized, original.loopsVectorized);
  EXPECT_EQ(loaded->idiomRewrites, original.idiomRewrites);
  EXPECT_EQ(loaded->degraded, original.degraded);
  EXPECT_EQ(loaded->tunedSignature, original.tunedSignature);
  EXPECT_EQ(loaded->tuneCandidates, original.tuneCandidates);
  EXPECT_EQ(loaded->tunedCycles, original.tunedCycles);
  EXPECT_EQ(loaded->tuneDefaultCycles, original.tuneDefaultCycles);
  EXPECT_TRUE(loaded->tuned());
}

TEST_F(ArtifactStoreTest, FileNameIsTheKeyHashHex) {
  CacheKey key = testKey();
  EXPECT_EQ(ArtifactStore::fileNameFor(key), hex64(key.hash) + ".art");
}

TEST_F(ArtifactStoreTest, StoreThenLoadHitsAndCounts) {
  ArtifactStore store({dir_.string(), 0});
  ASSERT_TRUE(store.ok()) << store.error();
  CacheKey key = testKey();

  EXPECT_EQ(store.load(key), nullptr);  // cold: miss
  EXPECT_TRUE(store.store(key, testResult()));
  auto loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->cCode, "/* generated */\n");

  auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST_F(ArtifactStoreTest, RestartedStoreInventoriesExistingArtifacts) {
  CacheKey key = testKey();
  {
    ArtifactStore store({dir_.string(), 0});
    ASSERT_TRUE(store.store(key, testResult()));
  }
  ArtifactStore reopened({dir_.string(), 0});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.stats().files, 1u);
  EXPECT_GT(reopened.stats().bytes, 0u);
  EXPECT_NE(reopened.load(key), nullptr);
}

// --- corruption: each damage class is a clean miss and the file is removed --

class CorruptionTest : public ArtifactStoreTest {
 protected:
  /// Stores one artifact, mutates its on-disk image with `damage`, and
  /// expects load() to report a clean miss, count it corrupt, and delete the
  /// damaged file so the next lookup misses quietly.
  void expectCleanMiss(const std::function<std::string(std::string)>& damage) {
    CacheKey key = testKey();
    ArtifactStore store({dir_.string(), 0});
    ASSERT_TRUE(store.store(key, testResult()));
    fs::path file = dir_ / ArtifactStore::fileNameFor(key);
    ASSERT_TRUE(fs::exists(file));

    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::string damaged = damage(std::move(bytes));
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }

    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(file)) << "corrupt artifact must be deleted";
    EXPECT_EQ(store.load(key), nullptr);  // now a plain miss
    EXPECT_EQ(store.stats().corrupt, 1u);
  }
};

TEST_F(CorruptionTest, TruncatedFile) {
  expectCleanMiss([](std::string b) { return b.substr(0, b.size() / 2); });
}

TEST_F(CorruptionTest, TruncatedHeader) {
  expectCleanMiss([](std::string b) { return b.substr(0, 6); });
}

TEST_F(CorruptionTest, BadMagic) {
  expectCleanMiss([](std::string b) {
    b[0] = 'X';
    return b;
  });
}

TEST_F(CorruptionTest, VersionSkew) {
  expectCleanMiss([](std::string b) {
    b[4] = static_cast<char>(ArtifactStore::kFormatVersion + 1);  // little-endian u32
    return b;
  });
}

TEST_F(CorruptionTest, ChecksumMismatch) {
  expectCleanMiss([](std::string b) {
    b.back() ^= 0x5a;  // flip payload bits; header checksum no longer matches
    return b;
  });
}

TEST_F(ArtifactStoreTest, DeserializeErrorsNameTheDamage) {
  CacheKey key = testKey();
  std::string good = ArtifactStore::serialize(key, testResult());
  std::string error;

  EXPECT_EQ(ArtifactStore::deserialize(good.substr(0, 3), key, &error), nullptr);
  EXPECT_EQ(error, "truncated header");

  std::string badMagic = good;
  badMagic[1] = '?';
  EXPECT_EQ(ArtifactStore::deserialize(badMagic, key, &error), nullptr);
  EXPECT_EQ(error, "bad magic");

  std::string skew = good;
  skew[4] = 9;
  EXPECT_EQ(ArtifactStore::deserialize(skew, key, &error), nullptr);
  EXPECT_EQ(error, "version skew");

  std::string flipped = good;
  flipped.back() ^= 1;
  EXPECT_EQ(ArtifactStore::deserialize(flipped, key, &error), nullptr);
  EXPECT_EQ(error, "checksum mismatch");

  EXPECT_EQ(ArtifactStore::deserialize(good.substr(0, good.size() - 1), key, &error),
            nullptr);
  EXPECT_EQ(error, "payload size mismatch");
}

TEST_F(ArtifactStoreTest, HashCollisionIsAMissNotCorruption) {
  // Same hash, different canonical: the 64-bit namespace collided. The stored
  // artifact belongs to someone else — a miss, but NOT corruption, and the
  // other key's artifact must survive.
  CacheKey key = testKey();
  ArtifactStore store({dir_.string(), 0});
  ASSERT_TRUE(store.store(key, testResult()));

  CacheKey collider;
  collider.canonical = "canonical:other";
  collider.hash = key.hash;
  EXPECT_EQ(store.load(collider), nullptr);
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_TRUE(fs::exists(dir_ / ArtifactStore::fileNameFor(key)));
  EXPECT_NE(store.load(key), nullptr);
}

// --- concurrency and eviction ----------------------------------------------

TEST_F(ArtifactStoreTest, ConcurrentWritersOfOneKeyRaceBenignly) {
  // Atomic rename means last-writer-wins with identical content: no torn
  // file, exactly one artifact, every subsequent load hits.
  ArtifactStore store({dir_.string(), 0});
  CacheKey key = testKey();
  CachedResult value = testResult();

  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&] {
      for (int j = 0; j < 16; ++j) store.store(key, value);
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(store.stats().files, 1u);
  auto loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->cCode, value.cCode);
  // No temp files may be left behind by losing writers.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".art") << entry.path();
  }
}

TEST_F(ArtifactStoreTest, EvictsOldestFirstUnderByteCap) {
  CachedResult value = testResult(std::string(1024, 'c'));
  std::size_t oneArtifact = ArtifactStore::serialize(testKey("0"), value).size();
  // Room for ~3 artifacts; store 6 — the oldest must go, the newest survive.
  ArtifactStore store({dir_.string(), oneArtifact * 3 + oneArtifact / 2});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.store(testKey(std::to_string(i)), value));
    // Keep mtimes strictly ordered even on coarse-timestamp filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto stats = store.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, oneArtifact * 3 + oneArtifact / 2);
  EXPECT_NE(store.load(testKey("5")), nullptr) << "newest artifact must survive eviction";
  EXPECT_EQ(store.load(testKey("0")), nullptr) << "oldest artifact must be evicted";
}

TEST_F(ArtifactStoreTest, EvictionMtimeTieBreaksByFilenameNotDirectoryOrder) {
  // Same-second writes are common on coarse-timestamp filesystems; when
  // mtimes collide the victim must be chosen by filename, not by whatever
  // order the directory iterator happens to yield (regression test for the
  // tie-break in evictLocked()).
  CachedResult value = testResult(std::string(1024, 'c'));
  std::size_t oneArtifact = ArtifactStore::serialize(testKey("0"), value).size();
  ArtifactStore store({dir_.string(), oneArtifact * 4 + oneArtifact / 2});

  std::vector<CacheKey> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(testKey("tie" + std::to_string(i)));
  for (const auto& key : keys) ASSERT_TRUE(store.store(key, value));

  // Force an exact tie, backdated so the fifth artifact is strictly newer.
  auto stamp = fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const auto& key : keys) {
    fs::last_write_time(dir_ / ArtifactStore::fileNameFor(key), stamp);
  }

  CacheKey newest = testKey("newest");
  ASSERT_TRUE(store.store(newest, value));  // pushes past the cap: one eviction

  std::vector<std::string> names;
  for (const auto& key : keys) names.push_back(ArtifactStore::fileNameFor(key));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(store.stats().evictions, 1u);
  for (const auto& key : keys) {
    if (ArtifactStore::fileNameFor(key) == names.front()) {
      EXPECT_EQ(store.load(key), nullptr)
          << "the lexicographically-first filename must be the tie victim";
    } else {
      EXPECT_NE(store.load(key), nullptr) << ArtifactStore::fileNameFor(key);
    }
  }
  EXPECT_NE(store.load(newest), nullptr);
}

#ifdef MAT2C_FAULT_INJECTION
TEST_F(ArtifactStoreTest, InjectedWriteFaultsCountFailuresAndTornWritesMissCleanly) {
  ArtifactStore store({dir_.string(), 0});
  CacheKey key = testKey();

  // fail: a full/readonly disk — counted, nothing touches the directory.
  fault::setSpec("fail:store.write:1");
  EXPECT_FALSE(store.store(key, testResult()));
  EXPECT_EQ(store.stats().putFailures, 1u);
  EXPECT_EQ(store.stats().files, 0u);

  // torn: the image is truncated mid-write but the rename lands — exactly a
  // crash between write and fsync. The checksum must turn the damaged file
  // into a clean miss, never a wrong artifact.
  fault::setSpec("torn:store.write:1");
  EXPECT_TRUE(store.store(key, testResult()));
  fault::setSpec("");
  EXPECT_EQ(store.load(key), nullptr) << "torn artifact must load as a miss";
  EXPECT_GE(store.stats().corrupt, 1u);

  // With injection cleared the same key stores and loads normally.
  EXPECT_TRUE(store.store(key, testResult()));
  EXPECT_NE(store.load(key), nullptr);
}
#endif  // MAT2C_FAULT_INJECTION

TEST_F(ArtifactStoreTest, UnusableDirectoryDisablesTheStore) {
  fs::path file = dir_ / "not_a_dir";
  std::ofstream(file) << "occupied";
  ArtifactStore store({file.string(), 0});
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
  CacheKey key = testKey();
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_FALSE(store.store(key, testResult()));
  EXPECT_EQ(store.stats().putFailures, 1u);
}

// --- service integration ---------------------------------------------------

TEST_F(ArtifactStoreTest, KillAndRestartServesWarmWithZeroCompiles) {
  // The acceptance criterion: populate via server A, "kill" it (destructor),
  // start server B on the same directory with a cold memory cache — every
  // repeat request must come back from disk, compiles stays 0.
  constexpr int kDistinct = 3;
  {
    CompileService::Config config;
    config.threads = 2;
    config.storeDir = dir_.string();
    CompileService svcA(config);
    std::vector<CompileRequest> batch;
    for (int k = 0; k < kDistinct; ++k) batch.push_back(kernelRequest(k));
    for (const auto& r : svcA.compileBatch(std::move(batch))) ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(svcA.stats().compiles, static_cast<std::uint64_t>(kDistinct));
  }  // destructor drains write-behind puts and joins the workers

  CompileService::Config config;
  config.threads = 2;
  config.storeDir = dir_.string();
  CompileService svcB(config);
  std::vector<CompileRequest> batch;
  for (int k = 0; k < kDistinct; ++k) batch.push_back(kernelRequest(k));
  auto responses = svcB.compileBatch(std::move(batch));
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.cacheHit);
    EXPECT_TRUE(r.storeHit);
    ASSERT_NE(r.result, nullptr);
    EXPECT_FALSE(r.result->hasUnit());
    EXPECT_FALSE(r.result->cCode.empty());
  }
  auto stats = svcB.stats();
  EXPECT_EQ(stats.compiles, 0u) << "a warm restart must never recompile";
  EXPECT_EQ(stats.storeHits, static_cast<std::uint64_t>(kDistinct));
  EXPECT_TRUE(stats.storeEnabled);

  // Once promoted into the memory cache, repeats are plain memory hits.
  auto repeat = svcB.compileBatch({kernelRequest(0)});
  ASSERT_TRUE(repeat[0].ok);
  EXPECT_TRUE(repeat[0].cacheHit);
  EXPECT_FALSE(repeat[0].storeHit);
}

TEST_F(ArtifactStoreTest, CorruptArtifactTriggersCleanRecompile) {
  CompileRequest request = kernelRequest(7);
  {
    CompileService::Config config;
    config.threads = 1;
    config.storeDir = dir_.string();
    CompileService svc(config);
    ASSERT_TRUE(svc.compileBatch({request})[0].ok);
  }
  // Flip bits in every stored artifact.
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  CompileService::Config config;
  config.threads = 1;
  config.storeDir = dir_.string();
  CompileService svc(config);
  auto response = svc.compileBatch({request})[0];
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.cacheHit);
  EXPECT_FALSE(response.storeHit);
  auto stats = svc.stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.store.corrupt, 1u);
  // The recompile re-persisted a good artifact: a third server hits again.
  svc.compileBatch({request});
}

TEST_F(ArtifactStoreTest, CompileIsPersistedBeforeItsResponse) {
  // Persist-before-ack: a caller holding a successful response may kill the
  // server at once, so the artifact must already be on disk — counted and
  // loadable — the moment the future is ready.
  CompileService::Config config;
  config.threads = 2;
  config.storeDir = dir_.string();
  CompileService svc(config);
  ArtifactStore reader({dir_.string(), 0});
  for (int k = 0; k < 8; ++k) {
    CompileRequest request = kernelRequest(20 + k);
    CacheKey key = CacheKey::make(request.source, request.entry, request.args, request.options);
    auto response = svc.submit(request).get();
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(svc.stats().store.puts, static_cast<std::uint64_t>(k + 1)) << "kernel " << k;
    EXPECT_NE(reader.load(key), nullptr) << "kernel " << k;
  }
}

TEST_F(ArtifactStoreTest, ConcurrentServersShareOneDirectory) {
  // Two live services on the same directory (the sibling-server scenario):
  // whichever compiles first persists; the other's NEXT request for the same
  // key is served from the shared store.
  CompileService::Config config;
  config.threads = 2;
  config.storeDir = dir_.string();
  CompileService svcA(config);
  CompileService svcB(config);

  ASSERT_TRUE(svcA.compileBatch({kernelRequest(1)})[0].ok);
  // svcA persists before it answers; the poll only bounds the wait.
  for (int spin = 0; spin < 200 && fs::is_empty(dir_); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(fs::is_empty(dir_)) << "write-behind never persisted the artifact";

  auto response = svcB.compileBatch({kernelRequest(1)})[0];
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.storeHit);
  EXPECT_EQ(svcB.stats().compiles, 0u);
}

}  // namespace
