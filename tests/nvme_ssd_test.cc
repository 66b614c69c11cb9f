// Tests for the NVMe device model: ring protocol (phase bits, wrap), data
// DMA, pacing, CQ backpressure, error injection, and the flash store.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"
#include "gpu/hbm.h"
#include "nvme/defs.h"
#include "nvme/flash_store.h"
#include "nvme/ssd.h"
#include "sim/engine.h"

namespace agile::nvme {
namespace {

TEST(FlashStoreTest, DefaultPatternIsDeterministic) {
  FlashStore fs(128);
  std::byte a[kLbaBytes], b[kLbaBytes];
  ASSERT_TRUE(fs.readPage(5, a));
  ASSERT_TRUE(fs.readPage(5, b));
  EXPECT_EQ(std::memcmp(a, b, kLbaBytes), 0);
  ASSERT_TRUE(fs.readPage(6, b));
  EXPECT_NE(std::memcmp(a, b, kLbaBytes), 0);
}

TEST(FlashStoreTest, WriteReadBack) {
  FlashStore fs(128);
  std::byte page[kLbaBytes];
  std::memset(page, 0xAB, kLbaBytes);
  ASSERT_TRUE(fs.writePage(7, page));
  std::byte out[kLbaBytes];
  ASSERT_TRUE(fs.readPage(7, out));
  EXPECT_EQ(std::memcmp(page, out, kLbaBytes), 0);
  EXPECT_EQ(fs.materializedPages(), 1u);
}

TEST(FlashStoreTest, TrimRestoresPattern) {
  FlashStore fs(128);
  std::byte page[kLbaBytes];
  std::memset(page, 0xCD, kLbaBytes);
  fs.writePage(3, page);
  fs.trimPage(3);
  std::byte out[kLbaBytes], expect[kLbaBytes];
  ASSERT_TRUE(fs.readPage(3, out));
  FlashStore::defaultPattern(3, expect);
  EXPECT_EQ(std::memcmp(out, expect, kLbaBytes), 0);
}

TEST(FlashStoreTest, OutOfRangeRejected) {
  FlashStore fs(16);
  std::byte page[kLbaBytes];
  EXPECT_FALSE(fs.readPage(16, page));
  EXPECT_FALSE(fs.writePage(99, page));
}

TEST(FlashStoreTest, ContentProviderOverrides) {
  FlashStore fs(16);
  fs.setContentProvider([](std::uint64_t lba, std::byte* out) {
    std::memset(out, static_cast<int>(lba), kLbaBytes);
  });
  std::byte out[kLbaBytes];
  ASSERT_TRUE(fs.readPage(9, out));
  EXPECT_EQ(static_cast<int>(out[100]), 9);
}

// Harness that drives the raw queue protocol the way the AGILE runtime does.
struct SsdFixture : ::testing::Test {
  sim::Engine eng;
  gpu::Hbm hbm{64_MiB};
  SsdConfig cfg;
  std::unique_ptr<SsdController> ssd;
  Sqe* sq = nullptr;
  Cqe* cq = nullptr;
  std::uint32_t qid = 0;
  std::uint32_t depth = 16;
  std::uint32_t sqTail = 0;
  std::uint32_t cqHead = 0;
  bool cqPhase = true;

  void SetUp() override {
    cfg.capacityLbas = 1024;
    ssd = std::make_unique<SsdController>(eng, cfg);
    ssd->attachHbm(hbm);
    sq = hbm.alloc<Sqe>(depth).data();
    cq = hbm.alloc<Cqe>(depth).data();
    qid = ssd->createQueuePair(sq, cq, depth);
  }

  std::uint16_t submit(Opcode op, std::uint64_t lba, std::byte* buf,
                       std::uint16_t cid) {
    Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(op);
    sqe.cid = cid;
    sqe.prp1 = hbm.physAddr(buf);
    sqe.slba = lba;
    sqe.nlb = 0;
    sq[sqTail] = sqe;
    sqTail = (sqTail + 1) % depth;
    ssd->writeSqDoorbell(qid, sqTail);
    return cid;
  }

  // Poll the CQ ring (phase-tagged) until `n` completions arrive; returns
  // them in arrival order.
  std::vector<Cqe> collect(std::size_t n) {
    std::vector<Cqe> out;
    const bool ok = eng.runUntil([&] {
      while (true) {
        const Cqe& e = cq[cqHead];
        if (e.phase() != cqPhase) break;
        out.push_back(e);
        cqHead = (cqHead + 1) % depth;
        if (cqHead == 0) cqPhase = !cqPhase;
        ssd->writeCqDoorbell(qid, cqHead);
      }
      return out.size() >= n;
    });
    EXPECT_TRUE(ok);
    return out;
  }
};

TEST_F(SsdFixture, ReadDeliversFlashPattern) {
  auto* buf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 42, buf, 7);
  auto cqes = collect(1);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].cid, 7);
  EXPECT_EQ(cqes[0].status(), Status::kSuccess);
  std::byte expect[kLbaBytes];
  FlashStore::defaultPattern(42, expect);
  EXPECT_EQ(std::memcmp(buf, expect, kLbaBytes), 0);
}

TEST_F(SsdFixture, WriteThenReadRoundTrip) {
  auto* wbuf = hbm.allocBytes(kLbaBytes);
  std::memset(wbuf, 0x5A, kLbaBytes);
  submit(Opcode::kWrite, 10, wbuf, 1);
  collect(1);
  auto* rbuf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 10, rbuf, 2);
  collect(1);
  EXPECT_EQ(std::memcmp(rbuf, wbuf, kLbaBytes), 0);
}

TEST_F(SsdFixture, CompletionCarriesLatency) {
  auto* buf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 1, buf, 3);
  collect(1);
  // Latency >= doorbell + fetch + read latency (with jitter margin).
  EXPECT_GE(eng.now(), cfg.readLatencyNs * 9 / 10);
}

TEST_F(SsdFixture, PhaseBitSurvivesWrap) {
  auto* buf = hbm.allocBytes(kLbaBytes);
  // More commands than the ring depth: force several laps.
  const int total = 50;
  int received = 0;
  int submitted = 0;
  while (received < total) {
    // Keep at most depth-2 outstanding (leave slack for ring full).
    while (submitted < total && submitted - received < 8) {
      submit(Opcode::kRead, static_cast<std::uint64_t>(submitted % 100), buf,
             static_cast<std::uint16_t>(submitted));
      ++submitted;
    }
    auto got = collect(static_cast<std::size_t>(received + 1 - received));
    received += static_cast<int>(got.size());
  }
  EXPECT_EQ(received, total);
}

TEST_F(SsdFixture, OutOfRangeLbaFails) {
  auto* buf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 5000, buf, 9);
  auto cqes = collect(1);
  EXPECT_EQ(cqes[0].status(), Status::kLbaOutOfRange);
}

TEST_F(SsdFixture, InvalidOpcodeFails) {
  Sqe sqe;
  sqe.opcode = 0x7f;
  sqe.cid = 11;
  sq[sqTail] = sqe;
  sqTail = (sqTail + 1) % depth;
  ssd->writeSqDoorbell(qid, sqTail);
  auto cqes = collect(1);
  EXPECT_EQ(cqes[0].status(), Status::kInvalidOpcode);
}

TEST_F(SsdFixture, InjectedFaultReturnsMediaError) {
  ssd->injectFault(33);
  auto* buf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 33, buf, 12);
  auto cqes = collect(1);
  EXPECT_EQ(cqes[0].status(), Status::kUnrecoveredReadError);
  EXPECT_EQ(ssd->errorsReturned(), 1u);
}

TEST_F(SsdFixture, FlushCompletes) {
  Sqe sqe;
  sqe.opcode = static_cast<std::uint8_t>(Opcode::kFlush);
  sqe.cid = 21;
  sq[sqTail] = sqe;
  sqTail = (sqTail + 1) % depth;
  ssd->writeSqDoorbell(qid, sqTail);
  auto cqes = collect(1);
  EXPECT_EQ(cqes[0].status(), Status::kSuccess);
}

TEST_F(SsdFixture, CqBackpressureStallsUntilDoorbell) {
  // Submit more commands than CQ space without consuming: completions beyond
  // depth-1 must wait for the CQ head doorbell.
  auto* buf = hbm.allocBytes(kLbaBytes);
  for (int i = 0; i < 15; ++i) {
    submit(Opcode::kRead, static_cast<std::uint64_t>(i), buf,
           static_cast<std::uint16_t>(i));
  }
  // Run without consuming: device can post at most depth-1 CQEs.
  eng.runFor(1_s);
  int posted = 0;
  for (std::uint32_t i = 0; i < depth; ++i) {
    if (cq[i].phase()) ++posted;
  }
  EXPECT_EQ(posted, static_cast<int>(depth) - 1);
  // Now consume; the rest must arrive.
  auto cqes = collect(15);
  EXPECT_EQ(cqes.size(), 15u);
}

TEST_F(SsdFixture, ThroughputMatchesConfiguredIops) {
  // Saturating reads must complete at ≈ readIops.
  auto* buf = hbm.allocBytes(kLbaBytes);
  const int total = 4000;
  int submitted = 0, received = 0;
  const SimTime start = eng.now();
  while (received < total) {
    while (submitted < total &&
           submitted - received < static_cast<int>(depth) - 2) {
      submit(Opcode::kRead, static_cast<std::uint64_t>(submitted % 1000), buf,
             static_cast<std::uint16_t>(submitted % 1024));
      ++submitted;
    }
    received += static_cast<int>(collect(received + 1 - received).size());
  }
  const double secs = static_cast<double>(eng.now() - start) / 1e9;
  const double iops = total / secs;
  // Queue depth 16 is not enough to fully saturate 925k IOPS at the
  // configured latency; throughput must be near depth/latency instead.
  const double expected =
      14.0 / (static_cast<double>(cfg.readLatencyNs) * 1e-9);
  EXPECT_NEAR(iops, expected, expected * 0.35);
}

TEST_F(SsdFixture, MultiPageCommandMovesAllPages) {
  auto* buf = hbm.allocBytes(4 * kLbaBytes);
  Sqe sqe;
  sqe.opcode = static_cast<std::uint8_t>(Opcode::kRead);
  sqe.cid = 30;
  sqe.prp1 = hbm.physAddr(buf);
  sqe.slba = 60;
  sqe.nlb = 3;  // 4 pages, 0-based
  sq[sqTail] = sqe;
  sqTail = (sqTail + 1) % depth;
  ssd->writeSqDoorbell(qid, sqTail);
  collect(1);
  for (std::uint64_t p = 0; p < 4; ++p) {
    std::byte expect[kLbaBytes];
    FlashStore::defaultPattern(60 + p, expect);
    EXPECT_EQ(std::memcmp(buf + p * kLbaBytes, expect, kLbaBytes), 0)
        << "page " << p;
  }
}

TEST_F(SsdFixture, QueuePairLimitEnforced) {
  SsdConfig small;
  small.maxQueuePairs = 2;
  SsdController dev(eng, small);
  dev.attachHbm(hbm);
  auto* s = hbm.alloc<Sqe>(8).data();
  auto* c = hbm.alloc<Cqe>(8).data();
  EXPECT_EQ(dev.createQueuePair(s, c, 8), 1u);
  EXPECT_EQ(dev.createQueuePair(s, c, 8), 2u);
  EXPECT_DEATH(dev.createQueuePair(s, c, 8), "queue-pair limit");
}

TEST_F(SsdFixture, StatsCountersTrack) {
  auto* buf = hbm.allocBytes(kLbaBytes);
  submit(Opcode::kRead, 1, buf, 40);
  collect(1);
  submit(Opcode::kWrite, 2, buf, 41);
  collect(1);
  EXPECT_EQ(ssd->readsCompleted(), 1u);
  EXPECT_EQ(ssd->writesCompleted(), 1u);
  EXPECT_EQ(ssd->bytesRead(), kLbaBytes);
  EXPECT_EQ(ssd->bytesWritten(), kLbaBytes);
}

TEST_F(SsdFixture, TruncatedPayloadPreservesTail) {
  SsdConfig tcfg = cfg;
  tcfg.payloadBytes = 64;
  SsdController dev(eng, tcfg);
  dev.attachHbm(hbm);
  auto* s = hbm.alloc<Sqe>(8).data();
  auto* c = hbm.alloc<Cqe>(8).data();
  auto q = dev.createQueuePair(s, c, 8);

  auto* buf = hbm.allocBytes(kLbaBytes);
  std::memset(buf, 0x77, kLbaBytes);
  Sqe sqe;
  sqe.opcode = static_cast<std::uint8_t>(Opcode::kWrite);
  sqe.cid = 1;
  sqe.prp1 = hbm.physAddr(buf);
  sqe.slba = 5;
  s[0] = sqe;
  dev.writeSqDoorbell(q, 1);
  eng.runUntil([&] { return c[0].phase(); });

  std::byte out[kLbaBytes], pattern[kLbaBytes];
  ASSERT_TRUE(dev.flash().readPage(5, out));
  FlashStore::defaultPattern(5, pattern);
  // First 64 bytes written, the rest keeps generated content.
  EXPECT_EQ(static_cast<int>(out[0]), 0x77);
  EXPECT_EQ(std::memcmp(out + 64, pattern + 64, kLbaBytes - 64), 0);
}

// Device in truncated-payload mode with its own queue pair; `run` submits
// one command of `nlb + 1` pages and waits for its completion.
struct TruncatedDevice {
  sim::Engine& eng;
  gpu::Hbm& hbm;
  SsdController dev;
  Sqe* sq;
  Cqe* cq;
  std::uint32_t q;
  std::uint32_t tail = 0;

  static SsdConfig withPayload(SsdConfig cfg, std::uint32_t payload) {
    cfg.payloadBytes = payload;
    return cfg;
  }

  TruncatedDevice(sim::Engine& e, gpu::Hbm& h, const SsdConfig& cfg,
                  std::uint32_t payload)
      : eng(e), hbm(h), dev(e, withPayload(cfg, payload)) {
    dev.attachHbm(hbm);
    sq = hbm.alloc<Sqe>(8).data();
    cq = hbm.alloc<Cqe>(8).data();
    q = dev.createQueuePair(sq, cq, 8);
  }

  Status run(Opcode op, std::uint64_t lba, std::byte* buf,
             std::uint16_t nlb = 0) {
    Sqe sqe;
    sqe.opcode = static_cast<std::uint8_t>(op);
    sqe.cid = static_cast<std::uint16_t>(tail);
    sqe.prp1 = hbm.physAddr(buf);
    sqe.slba = lba;
    sqe.nlb = nlb;
    const std::uint32_t slot = tail;
    sq[slot] = sqe;
    tail = (tail + 1) % 8;
    dev.writeSqDoorbell(q, tail);
    // One command in flight at a time and fewer than 8 per device, so the
    // CQE lands in the SQE's slot on the first (phase 1) lap.
    EXPECT_TRUE(eng.runUntil([&] { return cq[slot].phase(); }));
    return cq[slot].status();
  }
};

TEST_F(SsdFixture, TruncatedReadOfUnwrittenPageFillsOnlyPayload) {
  TruncatedDevice t(eng, hbm, cfg, 64);
  auto* buf = hbm.allocBytes(kLbaBytes);
  std::memset(buf, 0xEE, kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kRead, 42, buf), Status::kSuccess);
  std::byte expect[kLbaBytes];
  FlashStore::defaultPattern(42, expect);
  EXPECT_EQ(std::memcmp(buf, expect, 64), 0);
  for (std::uint32_t i = 64; i < kLbaBytes; ++i) {
    ASSERT_EQ(static_cast<int>(buf[i]), 0xEE) << "byte " << i;
  }
  EXPECT_EQ(t.dev.flash().materializedPages(), 0u);
}

TEST_F(SsdFixture, TruncatedWriteAfterFullWriteKeepsFullTail) {
  auto* full = hbm.allocBytes(kLbaBytes);
  for (std::uint32_t i = 0; i < kLbaBytes; ++i) {
    full[i] = static_cast<std::byte>(i * 7);
  }
  TruncatedDevice t(eng, hbm, cfg, 64);
  ASSERT_TRUE(t.dev.flash().writePage(9, full));
  auto* part = hbm.allocBytes(kLbaBytes);
  std::memset(part, 0x31, kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kWrite, 9, part), Status::kSuccess);

  std::byte out[kLbaBytes];
  ASSERT_TRUE(t.dev.flash().readPage(9, out));
  EXPECT_EQ(std::memcmp(out, part, 64), 0);
  EXPECT_EQ(std::memcmp(out + 64, full + 64, kLbaBytes - 64), 0);
}

TEST(FlashStoreTest, ProviderSwapKeepsOldTailOfPartialPage) {
  FlashStore fs(64);
  std::byte prefix[64];
  std::memset(prefix, 0x42, sizeof(prefix));
  ASSERT_TRUE(fs.writePrefix(5, prefix, sizeof(prefix)));
  std::byte before[kLbaBytes];
  ASSERT_TRUE(fs.readPage(5, before));

  fs.setContentProvider([](std::uint64_t, std::byte* out) {
    std::memset(out, 0x99, kLbaBytes);
  });
  std::byte after[kLbaBytes];
  ASSERT_TRUE(fs.readPage(5, after));
  EXPECT_EQ(std::memcmp(before, after, kLbaBytes), 0);
  std::byte pattern[kLbaBytes];
  FlashStore::defaultPattern(5, pattern);
  EXPECT_EQ(std::memcmp(after + 64, pattern + 64, kLbaBytes - 64), 0);
  // Unwritten pages follow the new provider.
  ASSERT_TRUE(fs.readPage(6, after));
  EXPECT_EQ(static_cast<int>(after[0]), 0x99);
}

TEST_F(SsdFixture, CustomProviderUnderTruncatedDma) {
  TruncatedDevice t(eng, hbm, cfg, 64);
  const auto provider = [](std::uint64_t lba, std::byte* out) {
    for (std::uint32_t i = 0; i < kLbaBytes; ++i) {
      out[i] = static_cast<std::byte>(lba * 31 + i * 3);
    }
  };
  t.dev.flash().setContentProvider(provider);
  std::byte expect[kLbaBytes];
  provider(17, expect);

  auto* rbuf = hbm.allocBytes(kLbaBytes);
  std::memset(rbuf, 0xEE, kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kRead, 17, rbuf), Status::kSuccess);
  EXPECT_EQ(std::memcmp(rbuf, expect, 64), 0);
  EXPECT_EQ(static_cast<int>(rbuf[64]), 0xEE);

  auto* wbuf = hbm.allocBytes(kLbaBytes);
  std::memset(wbuf, 0x5C, kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kWrite, 17, wbuf), Status::kSuccess);
  std::byte out[kLbaBytes];
  ASSERT_TRUE(t.dev.flash().readPage(17, out));
  EXPECT_EQ(std::memcmp(out, wbuf, 64), 0);
  EXPECT_EQ(std::memcmp(out + 64, expect + 64, kLbaBytes - 64), 0);
}

// A payload that is not a multiple of the 8-byte pattern word, on a
// four-page command (nlb = 3): every page moves exactly 61 bytes, byte-exact.
TEST_F(SsdFixture, OddPayloadOnMultiPageCommandIsByteExact) {
  constexpr std::uint32_t kPayload = 61;
  constexpr std::uint16_t kPages = 4;
  TruncatedDevice t(eng, hbm, cfg, kPayload);
  auto* rbuf = hbm.allocBytes(kPages * kLbaBytes);
  std::memset(rbuf, 0xEE, kPages * kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kRead, 100, rbuf, kPages - 1), Status::kSuccess);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    std::byte expect[kLbaBytes];
    FlashStore::defaultPattern(100 + p, expect);
    const std::byte* page = rbuf + p * kLbaBytes;
    EXPECT_EQ(std::memcmp(page, expect, kPayload), 0) << "page " << p;
    EXPECT_EQ(static_cast<int>(page[kPayload]), 0xEE) << "page " << p;
  }

  auto* wbuf = hbm.allocBytes(kPages * kLbaBytes);
  for (std::uint32_t i = 0; i < kPages * kLbaBytes; ++i) {
    wbuf[i] = static_cast<std::byte>(i + 1);
  }
  ASSERT_EQ(t.run(Opcode::kWrite, 200, wbuf, kPages - 1), Status::kSuccess);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    std::byte out[kLbaBytes], expect[kLbaBytes];
    ASSERT_TRUE(t.dev.flash().readPage(200 + p, out));
    FlashStore::defaultPattern(200 + p, expect);
    EXPECT_EQ(std::memcmp(out, wbuf + p * kLbaBytes, kPayload), 0)
        << "page " << p;
    EXPECT_EQ(std::memcmp(out + kPayload, expect + kPayload,
                          kLbaBytes - kPayload),
              0)
        << "page " << p;
  }
  // Reading the written pages back through the device returns the same
  // 61-byte prefixes.
  std::memset(rbuf, 0xEE, kPages * kLbaBytes);
  ASSERT_EQ(t.run(Opcode::kRead, 200, rbuf, kPages - 1), Status::kSuccess);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(std::memcmp(rbuf + p * kLbaBytes, wbuf + p * kLbaBytes,
                          kPayload),
              0)
        << "page " << p;
    EXPECT_EQ(static_cast<int>(rbuf[p * kLbaBytes + kPayload]), 0xEE);
  }
}

TEST(FlashStoreTest, TrimPartialPageRestoresPattern) {
  FlashStore fs(64);
  std::byte prefix[61];
  std::memset(prefix, 0x13, sizeof(prefix));
  ASSERT_TRUE(fs.writePrefix(8, prefix, sizeof(prefix)));
  EXPECT_EQ(fs.materializedPages(), 1u);
  fs.trimPage(8);
  EXPECT_EQ(fs.materializedPages(), 0u);
  std::byte out[kLbaBytes], expect[kLbaBytes];
  ASSERT_TRUE(fs.readPage(8, out));
  FlashStore::defaultPattern(8, expect);
  EXPECT_EQ(std::memcmp(out, expect, kLbaBytes), 0);
}

// Prefix reads at every length agree with the whole-page content, with and
// without a stored 13-byte prefix (so the generated part starts mid-word).
TEST(FlashStoreTest, PrefixReadsMatchWholePage) {
  FlashStore fs(64);
  std::byte prefix[13];
  std::memset(prefix, 0x6A, sizeof(prefix));
  ASSERT_TRUE(fs.writePrefix(4, prefix, sizeof(prefix)));
  for (const std::uint64_t lba : {3u, 4u}) {
    std::byte whole[kLbaBytes], got[kLbaBytes];
    FlashStore::defaultPattern(lba, whole);
    if (lba == 4) std::memcpy(whole, prefix, sizeof(prefix));
    ASSERT_TRUE(fs.readPage(lba, got));
    ASSERT_EQ(std::memcmp(got, whole, kLbaBytes), 0) << "lba " << lba;
    for (std::uint32_t n = 0; n <= 80; ++n) {
      std::byte out[kLbaBytes];
      std::memset(out, 0xEE, sizeof(out));
      ASSERT_TRUE(fs.readPrefix(lba, out, n));
      ASSERT_EQ(std::memcmp(out, whole, n), 0) << "lba " << lba << " n " << n;
      ASSERT_EQ(static_cast<int>(out[n]), 0xEE) << "lba " << lba << " n " << n;
    }
  }
}

// Differential check against a whole-page model of the store, where a
// truncated write reads the full page, patches its prefix and stores all
// 4 KiB: random full writes, prefix writes (odd lengths included), trims,
// provider swaps and prefix reads must agree byte for byte.
TEST(FlashStoreTest, RandomOpsMatchWholePageModel) {
  using Page = std::array<std::byte, kLbaBytes>;
  const ContentProvider providers[] = {
      [](std::uint64_t lba, std::byte* out) {
        std::memset(out, static_cast<int>(lba * 5 + 1), kLbaBytes);
      },
      [](std::uint64_t lba, std::byte* out) {
        for (std::uint32_t i = 0; i < kLbaBytes; ++i) {
          out[i] = static_cast<std::byte>(lba + i * 13);
        }
      },
  };
  constexpr std::uint64_t kLbas = 12;
  FlashStore fs(kLbas);
  std::map<std::uint64_t, Page> model;
  ContentProvider modelProvider = &FlashStore::defaultPattern;
  const auto modelRead = [&](std::uint64_t lba) {
    Page p;
    if (auto it = model.find(lba); it != model.end()) {
      p = it->second;
    } else {
      modelProvider(lba, p.data());
    }
    return p;
  };
  const std::uint32_t lengths[] = {1, 7, 8, 13, 61, 64, 100, kLbaBytes};
  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t lba = rng.nextBelow(kLbas);
    const std::uint32_t n = lengths[rng.nextBelow(std::size(lengths))];
    switch (rng.nextBelow(10)) {
      case 0:
      case 1:
      case 2: {  // write a prefix of n bytes
        Page in;
        for (auto& b : in) b = static_cast<std::byte>(rng.next());
        ASSERT_TRUE(fs.writePrefix(lba, in.data(), n));
        Page p = modelRead(lba);
        std::memcpy(p.data(), in.data(), n);
        model[lba] = p;
        break;
      }
      case 3:
        fs.trimPage(lba);
        model.erase(lba);
        break;
      case 4:
        if (rng.nextBelow(8) == 0) {
          const ContentProvider& next =
              providers[rng.nextBelow(std::size(providers))];
          fs.setContentProvider(next);
          modelProvider = next;
        }
        break;
      default: {  // read a prefix of n bytes
        Page got;
        got.fill(std::byte{0xEE});
        ASSERT_TRUE(fs.readPrefix(lba, got.data(), n));
        const Page want = modelRead(lba);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), n), 0)
            << "step " << step << " lba " << lba << " n " << n;
        if (n < kLbaBytes) {
          ASSERT_EQ(got[n], std::byte{0xEE});
        }
      }
    }
  }
  for (std::uint64_t lba = 0; lba < kLbas; ++lba) {
    Page got;
    ASSERT_TRUE(fs.readPage(lba, got.data()));
    EXPECT_EQ(got, modelRead(lba)) << "lba " << lba;
  }
}

}  // namespace
}  // namespace agile::nvme
