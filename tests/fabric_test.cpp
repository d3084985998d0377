// Fabric tests: wire-format framing (any byte split, hex-float payload
// fidelity, corruption/version/auth rejection), coordinator/worker
// distribution (byte-identical records at any worker count, link flaps
// included), lease requeueing when a worker dies mid-lease, reconnect and
// result re-send dedupe, journal merging, and the campaign-as-a-service
// daemon end to end — a submitted job's records byte-identical to
// run_cells, a hung-up client's queued cells cancelled, two jobs running
// concurrently over one worker pool, and STATUS plus DONE's fleet
// sections.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/kv.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/sandbox.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"
#include "fabric/client.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/flight.hpp"
#include "fabric/service.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "obs/metrics.hpp"

namespace pfi::fabric {
namespace {

using campaign::CampaignSpec;
using campaign::RunCell;
using campaign::RunResult;
using core::scriptgen::FaultKind;
namespace kv = campaign::kv;

CampaignSpec small_gmp_spec() {
  CampaignSpec spec;
  spec.name = "fabric-unit";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-commit"};
  spec.faults = {FaultKind::kDrop};
  spec.seeds = {1000, 1001, 1002};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(40);
  return spec;
}

std::vector<std::string> record_strings(const std::vector<RunResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(campaign::record_json(r));
  return out;
}

// --- framing ---------------------------------------------------------------

TEST(FabricWire, FramesSurviveByteAtATimeDelivery) {
  Hello hello;
  hello.version = 7;
  hello.role = "worker";
  hello.name = "w0";
  const std::string stream =
      encode_frame(FrameType::kHello, encode_hello(hello)) +
      encode_frame(FrameType::kHeartbeat, "") +
      encode_frame(FrameType::kBye, encode_bye("so long"));

  FrameReader reader;
  std::vector<Frame> frames;
  Frame f;
  for (char c : stream) {
    reader.feed(&c, 1);  // worst-case recv() fragmentation
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  Hello h;
  ASSERT_TRUE(decode_hello(frames[0].payload, &h));
  EXPECT_EQ(h.version, 7u);
  EXPECT_EQ(h.role, "worker");
  EXPECT_EQ(h.name, "w0");
  EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(decode_bye(frames[2].payload), "so long");
  EXPECT_FALSE(reader.corrupt());
}

TEST(FabricWire, RejectsCorruptStreams) {
  {
    FrameReader reader;  // impossible length
    const char huge[] = {'\x7f', '\x7f', '\x7f', '\x7f', '\x01'};
    reader.feed(huge, sizeof huge);
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    FrameReader reader;  // unknown frame type 0x63
    const char unknown[] = {'\x00', '\x00', '\x00', '\x01', '\x63'};
    reader.feed(unknown, sizeof unknown);
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(FabricWire, CellRoundTripsAllScheduleEventKinds) {
  const auto spec = small_gmp_spec();
  RunCell cell = campaign::plan(spec)[0];
  cell.schedule.events.clear();
  campaign::FaultEvent e;
  e.type = "*";
  for (const FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kDuplicate,
        FaultKind::kCorrupt, FaultKind::kReorder}) {
    e.kind = kind;
    e.occurrence += 2;
    e.delay = sim::msec(35);
    e.copies = 3;
    e.corrupt_offset = 11;
    cell.schedule.events.push_back(e);
  }
  cell.timeout_ms = 1234;
  cell.max_sim_events = 99999;
  cell.capture_timeline = true;

  RunCell back;
  ASSERT_TRUE(decode_cell(encode_cell(cell), &back));
  EXPECT_EQ(back.index, cell.index);
  EXPECT_EQ(back.id, cell.id);
  EXPECT_EQ(back.protocol, cell.protocol);
  EXPECT_EQ(back.oracle, cell.oracle);
  EXPECT_EQ(back.seed, cell.seed);
  EXPECT_EQ(back.timeout_ms, cell.timeout_ms);
  EXPECT_EQ(back.max_sim_events, cell.max_sim_events);
  EXPECT_EQ(back.capture_timeline, cell.capture_timeline);
  ASSERT_EQ(back.schedule.size(), cell.schedule.size());
  for (std::size_t i = 0; i < cell.schedule.events.size(); ++i) {
    EXPECT_EQ(back.schedule.events[i].kind, cell.schedule.events[i].kind);
    EXPECT_EQ(back.schedule.events[i].occurrence,
              cell.schedule.events[i].occurrence);
    EXPECT_EQ(back.schedule.events[i].delay, cell.schedule.events[i].delay);
    EXPECT_EQ(back.schedule.events[i].copies, cell.schedule.events[i].copies);
  }
  // The compiled scripts — what actually executes — must match exactly.
  EXPECT_EQ(back.schedule.compile().receive, cell.schedule.compile().receive);
}

TEST(FabricWire, ResultRoundTripsExactDoubles) {
  // A fresh execution's record must be byte-identical after crossing the
  // wire: doubles travel as C99 %a hex floats, not decimal approximations.
  const auto cells = campaign::plan(small_gmp_spec());
  const RunResult r = campaign::run_cell(cells[0]);
  std::string payload = encode_result(5, 42, 77, r);
  int job = -1, slot = -1;
  std::int64_t epoch = -1;
  RunResult back;
  ASSERT_TRUE(decode_result(payload, &job, &slot, &epoch, &back));
  EXPECT_EQ(job, 5);
  EXPECT_EQ(slot, 42);
  EXPECT_EQ(epoch, 77);
  EXPECT_EQ(campaign::record_json(back), campaign::record_json(r));
  EXPECT_EQ(back.metrics.size(), r.metrics.size());
}

TEST(FabricWire, HelloCarriesTokenAndWorkerId) {
  Hello h;
  h.role = "worker";
  h.name = "w-lab";
  h.token = "open sesame";
  h.id = "w17";
  Hello back;
  ASSERT_TRUE(decode_hello(encode_hello(h), &back));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.token, "open sesame");
  EXPECT_EQ(back.id, "w17");
  // A bare HELLO (no token, no id — a fresh unauthenticated worker) leaves
  // both fields empty after the round trip.
  Hello plain;
  plain.role = "worker";
  plain.name = "w0";
  Hello bare;
  ASSERT_TRUE(decode_hello(encode_hello(plain), &bare));
  EXPECT_TRUE(bare.token.empty());
  EXPECT_TRUE(bare.id.empty());
}

TEST(FabricWire, TokenCompareMatchesExactBytesOnly) {
  EXPECT_TRUE(tokens_equal("open sesame", "open sesame"));
  EXPECT_TRUE(tokens_equal("", ""));
  EXPECT_FALSE(tokens_equal("open sesame", "open sesamE"));
  EXPECT_FALSE(tokens_equal("open sesame", "open sesame "));
  EXPECT_FALSE(tokens_equal("open sesame", ""));
}

TEST(FabricWire, LeaseGrantCarriesJobAndEpochs) {
  const auto cells = campaign::plan(small_gmp_spec());
  const std::vector<RunCell> grant(cells.begin(), cells.begin() + 2);
  const std::string payload = encode_lease_grant(3, {4, 9}, {101, 102}, grant);
  int job = -1;
  std::vector<int> slots;
  std::vector<std::int64_t> epochs;
  std::vector<RunCell> back;
  ASSERT_TRUE(decode_lease_grant(payload, &job, &slots, &epochs, &back));
  EXPECT_EQ(job, 3);
  EXPECT_EQ(slots, (std::vector<int>{4, 9}));
  EXPECT_EQ(epochs, (std::vector<std::int64_t>{101, 102}));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, grant[0].id);
  EXPECT_EQ(back[1].id, grant[1].id);
}

TEST(FabricWire, SubmitCarriesNameQuotaAndCells) {
  Submit s;
  s.name = "fabric-unit";
  s.max_workers = 3;
  s.cells = campaign::plan(small_gmp_spec());
  Submit back;
  ASSERT_TRUE(decode_submit(encode_submit(s), &back));
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.max_workers, 3);
  ASSERT_EQ(back.cells.size(), s.cells.size());
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    EXPECT_EQ(encode_cell(back.cells[i]), encode_cell(s.cells[i])) << i;
  }
  // A cell count that disagrees with the cells carried rejects the frame.
  std::string p = encode_submit(s);
  kv::put(&p, "cell", encode_cell(s.cells[0]));
  EXPECT_FALSE(decode_submit(p, &back));
}

// --- coordinator + workers -------------------------------------------------

TEST(Fabric, VersionMismatchIsRejectedWithByeReason) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  const auto cells = campaign::plan(small_gmp_spec());
  std::atomic<bool> stop{false};
  FabricStats stats;
  std::thread coordinator([&] {
    FabricOptions opts;
    opts.should_stop = [&] { return stop.load(); };
    run_fabric(&listener, cells, opts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.version = 999;
  hello.role = "worker";
  const std::string bytes =
      encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  ASSERT_TRUE(read_frame(fd, &reader, &f));
  EXPECT_EQ(f.type, FrameType::kBye);
  const std::string reason = decode_bye(f.payload);
  EXPECT_NE(reason.find("version mismatch"), std::string::npos) << reason;
  // The BYE names the version the coordinator wanted, so a stale binary's
  // operator knows what to rebuild.
  EXPECT_NE(reason.find("expected v4"), std::string::npos) << reason;
  close(fd);

  stop.store(true);
  coordinator.join();
  EXPECT_EQ(stats.version_rejected, 1);
}

TEST(Fabric, WrongTokenIsRejectedBeforeAnyState) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  const auto cells = campaign::plan(small_gmp_spec());
  std::atomic<bool> stop{false};
  FabricStats stats;
  std::thread coordinator([&] {
    FabricOptions opts;
    opts.token = "open sesame";
    opts.should_stop = [&] { return stop.load(); };
    run_fabric(&listener, cells, opts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.role = "worker";
  hello.name = "intruder";
  hello.token = "guessed wrong";
  const std::string bytes =
      encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  ASSERT_TRUE(read_frame(fd, &reader, &f));
  EXPECT_EQ(f.type, FrameType::kBye);
  EXPECT_NE(decode_bye(f.payload).find("auth failed"), std::string::npos);
  close(fd);

  stop.store(true);
  coordinator.join();
  EXPECT_EQ(stats.auth_rejected, 1);
  EXPECT_EQ(stats.workers_joined, 0);  // rejection created no state at all
}

TEST(Fabric, AllowlistClosesUnlistedTcpPeers) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  eopts.allow = {"10.0.0.1"};  // loopback is not on the list
  Engine engine(&listener, eopts);

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  for (int i = 0; i < 50 && engine.stats.addr_rejected == 0; ++i) {
    engine.step(10);
  }
  EXPECT_EQ(engine.stats.addr_rejected, 1);
  // The peer sees a plain close: no BYE, no HELLO, nothing to probe.
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof buf, 0), 0);
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, MatchesInProcessRecordsAtAnyWorkerCount) {
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  // Fork before anything threads: worker children must come from a
  // single-threaded parent.
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 3, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(stats.workers_joined, 1);
}

TEST(Fabric, DeadWorkerLeasesRequeueToSurvivors) {
  // Deterministic worker-death: a scripted "vampire" connection leases
  // cells and vanishes without producing results; the engine must requeue
  // its slots and a real worker must finish the campaign byte-identically.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  // Keep the test fast: a vanished worker gets 300 ms to reconnect before
  // its leases requeue (production default rides dead_after_ms).
  eopts.reconnect_grace_ms = 300;
  Engine engine(&listener, eopts);
  std::vector<RunResult> results(cells.size());
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  // Vampire: handshake, lease, disappear.
  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  fcntl(fd, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.role = "worker";
  hello.name = "vampire";
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  bytes = encode_frame(FrameType::kLease, encode_lease_request(4));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  bool leased = false;
  for (int i = 0; i < 400 && !leased; ++i) {
    engine.step(10);
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      reader.feed(buf, static_cast<std::size_t>(n));
    }
    while (reader.next(&f)) {
      if (f.type != FrameType::kLease) continue;
      int job = -1;
      std::vector<int> slots;
      std::vector<std::int64_t> epochs;
      std::vector<RunCell> granted;
      ASSERT_TRUE(decode_lease_grant(f.payload, &job, &slots, &epochs,
                                     &granted));
      EXPECT_FALSE(slots.empty());
      EXPECT_EQ(epochs.size(), slots.size());
      leased = true;
    }
  }
  ASSERT_TRUE(leased) << "vampire never got a lease";
  close(fd);  // dies holding its lease

  // Now a real worker (forked; the Engine itself spawns no threads).
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  for (int i = 0; i < 3000 && !done; ++i) engine.step(20);
  ASSERT_TRUE(done);
  engine.shutdown("test complete");
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(engine.stats.cells_requeued, 1);
  EXPECT_GE(engine.stats.workers_lost, 1);
}

TEST(Fabric, LinkFlapsKeepRecordsByteIdentical) {
  // Chaos determinism: the coordinator severs a worker's link after every
  // 2nd result (simulated network partition, no BYE). Workers must notice,
  // reconnect under the same stable id, re-send finished results, and the
  // final report must be byte-for-byte what a single process produces —
  // with zero requeues, because reattachment beats the reconnect grace.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  wopts.token = "open sesame";
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 2, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  fopts.token = "open sesame";
  fopts.flap_every = 2;
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(stats.links_dropped, 1);
  EXPECT_GE(stats.workers_reattached, 1);
  EXPECT_EQ(stats.cells_requeued, 0);  // every flap reattached in time
  EXPECT_EQ(stats.workers_lost, 0);
}

// --- hostile input ----------------------------------------------------------

TEST(FabricKv, ScanRejectsHostileLengthTokens) {
  // Payloads are parsed before authentication, so a crafted length token
  // must end the scan instead of wrapping the bounds arithmetic into an
  // out-of-bounds read (or sending the cursor backwards forever).
  const char* hostile[] = {
      "key 18446744073709551615\nx\n",  // ULLONG_MAX: naive bounds wrap
      "key 18446744073709551614\nx\n",  // ULLONG_MAX-1: pos would go back
      "key 99999999999999999999\nx\n",  // > 64 bits: ERANGE saturation
      "key -1\nx\n",                    // strtoull happily wraps "-1"
      "key 12a\nxxxxxxxxxxxx\n",        // trailing garbage in the token
      "key \nx\n",                      // empty token
      "key 4\nab\n",                    // claims more than is present
  };
  for (const char* payload : hostile) {
    kv::Scan scan{payload};
    std::string key, value;
    int entries = 0;
    while (scan.next(&key, &value) && entries < 4) ++entries;
    EXPECT_EQ(entries, 0) << payload;
  }
  // And the well-formed shape still parses, including an embedded newline.
  kv::Scan ok{std::string_view("key 3\na\nb\n", 10)};
  std::string key, value;
  ASSERT_TRUE(ok.next(&key, &value));
  EXPECT_EQ(key, "key");
  EXPECT_EQ(value, std::string("a\nb", 3));
  EXPECT_FALSE(ok.next(&key, &value));
}

TEST(FabricWire, DecodersRejectOverflowedNumericFields) {
  // A numeric field that strtoll/strtoull would silently saturate must
  // fail the whole decode — a clamped count or version is not a value
  // anyone sent.
  {
    std::string p;
    kv::put(&p, "want", "99999999999999999999999999");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
  {
    std::string p;
    kv::put(&p, "want", "-3");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
  {
    std::string p;
    kv::put(&p, "v", "99999999999999999999999999");
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h));
  }
  {
    std::string p;  // unsigned field, negative value
    kv::put(&p, "v", "-2");
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h));
  }
  // In range for int64 but not for the int field it lands in: the read is
  // range-checked against the field, never narrowed (slot 2^32 was slot 0).
  {
    std::string p;
    kv::put(&p, "want", "4294967298");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
  {
    std::string p;
    kv::put(&p, "v", "4294967299");  // past the uint32 version field
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h));
  }
  RunResult r;
  r.id = "x";
  const std::string res = campaign::wire_encode(r);
  const auto result_with = [&](const char* key, const char* value) {
    std::string p;
    kv::put(&p, "job", "1");
    kv::put(&p, "slot", "0");
    kv::put(&p, "epoch", "1");
    kv::put(&p, key, value);
    kv::put(&p, "res", res);
    int job = 0, slot = 0;
    std::int64_t epoch = 0;
    RunResult out;
    return decode_result(p, &job, &slot, &epoch, &out);
  };
  EXPECT_TRUE(result_with("pad", "ignored"));
  EXPECT_FALSE(result_with("slot", "4294967296"));
  EXPECT_FALSE(result_with("job", "-2147483649"));
  EXPECT_FALSE(result_with("epoch", "9223372036854775808"));
  {
    std::string p;  // the nested RunResult is strict too
    kv::put(&p, "slot", "0");
    std::string bad;
    kv::put(&bad, "seed", "-17");
    kv::put(&bad, "end", "");
    kv::put(&p, "res", bad);
    int job = 0, slot = 0;
    std::int64_t epoch = 0;
    RunResult out;
    EXPECT_FALSE(decode_result(p, &job, &slot, &epoch, &out));
  }
  RunCell cell;
  cell.id = "c";
  cell.protocol = "gmp";
  for (const char* timeout : {"2147483648", "1e3", "7ms"}) {
    std::string p = encode_cell(cell);
    kv::put(&p, "timeout_ms", timeout);
    RunCell out;
    EXPECT_FALSE(decode_cell(p, &out)) << timeout;
  }
  {
    std::string p;
    kv::put(&p, "job", "4294967296");
    kv::put(&p, "n", "0");
    int job = 0;
    std::vector<int> slots;
    std::vector<std::int64_t> epochs;
    std::vector<RunCell> cells;
    EXPECT_FALSE(decode_lease_grant(p, &job, &slots, &epochs, &cells));
  }
  {
    Submit sub;
    sub.name = "x";
    std::string p = encode_submit(sub);
    kv::put(&p, "max_workers", "99999999999");
    Submit out;
    EXPECT_FALSE(decode_submit(p, &out));
  }
}

TEST(Fabric, SilentPreAuthConnectionIsDropped) {
  // A peer that connects and never completes HELLO must not hold an fd
  // (and a frame buffer) forever: the handshake deadline fires and the
  // connection is closed without a BYE.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  eopts.handshake_timeout_ms = 100;
  Engine engine(&listener, eopts);

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  for (int i = 0; i < 200 && engine.stats.handshake_timeouts == 0; ++i) {
    engine.step(10);
  }
  EXPECT_EQ(engine.stats.handshake_timeouts, 1);
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof buf, 0), 0);  // plain close, no BYE
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, OversizedPreAuthFrameIsDropped) {
  // Before HELLO a peer gets kMaxHelloPayload per frame, not the 64 MB a
  // handshaken worker's RESULT may claim; a bigger header is corruption
  // and the connection drops before any payload accumulates.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine engine(&listener, {});

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::uint32_t claim = 1u << 20;  // 1 MB, > kMaxHelloPayload
  const char header[4] = {static_cast<char>(claim >> 24),
                          static_cast<char>((claim >> 16) & 0xff),
                          static_cast<char>((claim >> 8) & 0xff),
                          static_cast<char>(claim & 0xff)};
  ASSERT_TRUE(send_all(fd, header, sizeof header));
  char buf[16];
  ssize_t n = -1;
  for (int i = 0; i < 200; ++i) {
    engine.step(10);
    n = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n >= 0) break;
  }
  EXPECT_EQ(n, 0);  // dropped, nothing echoed back
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, WorkerIdleTimeoutReconnectsThroughSilentLink) {
  // A coordinator that goes mute (heartbeats off stands in for a silent
  // partition) must not strand a parked worker in recv() for TCP's
  // many-minute retransmission timeout: the worker's idle detector fires
  // and it reconnects under its stable id.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  WorkerOptions wopts;
  wopts.connect = listener.address();
  wopts.heartbeat_ms = 100;
  wopts.idle_timeout_ms = 300;
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;

  Engine::Options eopts;
  eopts.heartbeat_ms = 0;  // mute: never beat the parked worker
  Engine engine(&listener, eopts);
  for (int i = 0; i < 800 && engine.stats.workers_reattached == 0; ++i) {
    engine.step(10);
  }
  EXPECT_GE(engine.stats.workers_reattached, 1);
  EXPECT_EQ(engine.stats.workers_lost, 0);  // reattach beat the grace clock
  engine.shutdown("test complete");
  reap_local_workers(&pool);
}

// --- journal merging -------------------------------------------------------

TEST(FabricJournal, MergeDedupesSortsAndIgnoresInputOrder) {
  const std::string a = "/tmp/pfi_fabric_test_a.jsonl";
  const std::string b = "/tmp/pfi_fabric_test_b.jsonl";
  {
    campaign::Journal ja;
    ASSERT_TRUE(ja.open(a));
    ja.append("00000000000000ff", "{\"index\":2,\"id\":\"z\"}");
    ja.append("0000000000000001", "{\"index\":0,\"id\":\"x\"}");
    campaign::Journal jb;
    ASSERT_TRUE(jb.open(b));
    jb.append("0000000000000001", "{\"index\":0,\"id\":\"x\"}");  // dup
    jb.append("00000000000000aa", "{\"index\":1,\"id\":\"y\"}");
  }
  int conflicts = -1;
  const auto ab = campaign::merge_journals({a, b}, &conflicts);
  EXPECT_EQ(conflicts, 0);  // identical duplicate is not a conflict
  ASSERT_EQ(ab.size(), 3u);
  const auto ba = campaign::merge_journals({b, a});
  EXPECT_EQ(campaign::journal_jsonl(ab), campaign::journal_jsonl(ba));
  // Sorted normal form: keys ascending, one line each.
  const std::string jsonl = campaign::journal_jsonl(ab);
  EXPECT_LT(jsonl.find("0000000000000001"), jsonl.find("00000000000000aa"));
  EXPECT_LT(jsonl.find("00000000000000aa"), jsonl.find("00000000000000ff"));

  // A same-key, different-bytes collision is corruption and is counted.
  {
    campaign::Journal jb;
    ASSERT_TRUE(jb.open(b));  // append mode
    jb.append("00000000000000ff", "{\"index\":2,\"id\":\"DIFFERENT\"}");
  }
  conflicts = 0;
  const auto clash = campaign::merge_journals({a, b}, &conflicts);
  EXPECT_EQ(conflicts, 1);
  EXPECT_EQ(clash.at("00000000000000ff"), "{\"index\":2,\"id\":\"z\"}");
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- the daemon ------------------------------------------------------------

TEST(FabricService, RunsSubmittedJobByteIdenticalToRunCells) {
  const CampaignSpec spec = small_gmp_spec();
  const auto cells = campaign::plan(spec);
  const auto baseline = campaign::run_cells(cells, {});
  // A job the client abandons after its first result: big enough that
  // running it out would take far more leases than the cancel leaves.
  CampaignSpec big_spec = spec;
  big_spec.name = "abandoned";
  big_spec.seeds.clear();
  for (std::uint64_t s = 2000; s < 2100; ++s) big_spec.seeds.push_back(s);
  const auto big = campaign::plan(big_spec);
  ASSERT_GE(big.size(), 100u);

  std::string err;
  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  // Worker first (fork needs a single-threaded parent), then the service.
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.engine.lease_batch = 1;  // one lease per executed cell
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  Client client;
  ASSERT_TRUE(client.connect(listener.address(), "", "test-client", &err))
      << err;
  client.set_job(spec.name, 0);
  std::size_t streamed = 0;
  campaign::ExecutorOptions eo;
  eo.on_result = [&](const RunResult&) { ++streamed; };
  const auto results = client.run_cells(cells, eo, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(streamed, cells.size());
  EXPECT_EQ(record_strings(results), record_strings(baseline));
  // The report built from them is the in-process one, byte for byte, with
  // the layout docs/CAMPAIGN.md pins: failing_ids inside the summary.
  const auto report_of = [&](const std::vector<RunResult>& rs) {
    campaign::CampaignReport report;
    report.records.resize(cells.size());
    campaign::splice_records(cells, rs, &report.records);
    return campaign::report_json(spec, report,
                                 campaign::tally_records(report.records));
  };
  const std::string report_text = report_of(results);
  EXPECT_EQ(report_text, report_of(baseline));
  const auto doc = campaign::json::parse(report_text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("failing_ids"), nullptr);
  ASSERT_NE(doc->find("summary"), nullptr);
  EXPECT_NE(doc->find("summary")->find("failing_ids"), nullptr);

  // A client that hangs up mid-job: the daemon cancels its queued cells,
  // and the job completes without executing them.
  {
    Client quitter;
    ASSERT_TRUE(quitter.connect(listener.address(), "", "quitter", &err))
        << err;
    quitter.set_job(big_spec.name, 0);
    std::size_t got = 0;
    campaign::ExecutorOptions stop_eo;
    stop_eo.on_result = [&](const RunResult&) { ++got; };
    stop_eo.should_stop = [&] { return got > 0; };
    const auto partial = quitter.run_cells(big, stop_eo, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(got, 1u);
    const auto ran = std::count_if(partial.begin(), partial.end(),
                                   [](const RunResult& r) {
                                     return r.index >= 0;
                                   });
    EXPECT_EQ(ran, 1);
  }
  std::string status;
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(client.status(&status, &err)) << err;
    if (status.find("\"jobs_completed\":2") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(status.find("\"jobs_completed\":2"), std::string::npos)
      << status;
  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);
  EXPECT_EQ(stats.jobs_completed, 2);
  EXPECT_LT(stats.fabric.leases_granted,
            static_cast<int>(cells.size() + big.size() / 2));
}

TEST(FabricService, RunsTwoJobsConcurrentlyOverOnePool) {
  const CampaignSpec spec = small_gmp_spec();
  const auto cells = campaign::plan(spec);
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  std::string err;
  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 2, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  // Two clients submit at once; the scheduler must run both jobs together
  // (leases round-robin over the shared pool) rather than serialising
  // them. Per-job quota: with 2 workers and 2 jobs capped at 1 worker
  // each, concurrency is forced rather than merely possible.
  Client clients[2];
  std::vector<RunResult> results[2];
  std::string errs[2];
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(clients[c].connect(listener.address(), "",
                                   "client-" + std::to_string(c), &err))
        << err;
    clients[c].set_job(spec.name, 1);
  }
  std::thread second([&] {
    results[1] = clients[1].run_cells(cells, {}, &errs[1]);
  });
  results[0] = clients[0].run_cells(cells, {}, &errs[0]);
  second.join();
  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);

  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(errs[c].empty()) << errs[c];
    EXPECT_EQ(record_strings(results[c]), baseline) << c;
  }
  EXPECT_EQ(stats.jobs_completed, 2);
  EXPECT_EQ(stats.peak_active, 2);  // they really ran at the same time
}

// --- fleet observability ----------------------------------------------------

TEST(FlightRecorder, BoundedRingEvictsOldestAndCountsDropped) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(FlightEvent::kResult, "w" + std::to_string(i), i, i, i);
  }
  // TraceLog::set_capacity semantics: total_added == size + dropped, always.
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.dropped(), 6u);
  EXPECT_EQ(fr.total_added(), 10u);
  auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_STREQ(snap.front().worker, "w6");  // oldest survivor first
  EXPECT_STREQ(snap.back().worker, "w9");
  EXPECT_EQ(snap.back().job, 9);
  EXPECT_EQ(snap.back().slot, 9);
  EXPECT_EQ(snap.back().epoch, 9);

  // Shrinking evicts the oldest survivors and counts them as dropped too.
  fr.set_capacity(2);
  EXPECT_EQ(fr.size(), 2u);
  EXPECT_EQ(fr.dropped(), 8u);
  EXPECT_EQ(fr.total_added(), 10u);
  EXPECT_STREQ(fr.snapshot().front().worker, "w8");

  // Capacity 0 clamps to 1: the ring stays bounded but never degenerate.
  fr.set_capacity(0);
  EXPECT_EQ(fr.capacity(), 1u);
  EXPECT_EQ(fr.size(), 1u);
  EXPECT_EQ(fr.dropped(), 9u);
  EXPECT_STREQ(fr.snapshot().front().worker, "w9");

  // JSONL carries the accounting trailer so a consumer can tell a quiet
  // fabric from a truncated ring.
  const std::string jsonl = fr.to_jsonl();
  EXPECT_NE(jsonl.find("\"event\":\"flight-meta\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dropped\":9"), std::string::npos);
}

TEST(FlightRecorder, TraceLanesGroupEventsByWorker) {
  FlightRecorder fr;
  fr.record(FlightEvent::kConnect);  // no worker tag: lands on lane 0
  fr.record(FlightEvent::kLeaseGrant, "w2", 0, 3, 1);
  fr.record(FlightEvent::kResult, "w1", 0, 0, 1);
  const std::string frag = fr.to_trace_events("fabric", 7);
  // One process lane, one thread lane per worker id, instants on each.
  EXPECT_NE(frag.find("\"process_name\""), std::string::npos);
  EXPECT_NE(frag.find("\"fabric\""), std::string::npos);
  EXPECT_NE(frag.find("\"w1\""), std::string::npos);
  EXPECT_NE(frag.find("\"w2\""), std::string::npos);
  EXPECT_NE(frag.find("\"lease-grant\""), std::string::npos);
  EXPECT_NE(frag.find("\"pid\":7"), std::string::npos);
  // A fragment, not a document: the caller splices it into traceEvents.
  EXPECT_NE(frag.front(), '[');
  EXPECT_NE(frag.back(), ']');
}

TEST(FabricWire, StatsRoundTripAndOverflowRejection) {
  std::vector<obs::MetricSample> in;
  obs::MetricSample s;
  s.name = "fabric.worker.cells_executed";
  s.kind = 'c';
  s.value = 42;
  in.push_back(s);
  s.name = "sim.max_queue_depth";
  s.kind = 'g';
  s.value = 7;
  in.push_back(s);

  std::vector<obs::MetricSample> out;
  ASSERT_TRUE(decode_stats(encode_stats(in), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "fabric.worker.cells_executed");
  EXPECT_EQ(out[0].kind, 'c');
  EXPECT_EQ(out[0].value, 42u);
  EXPECT_EQ(out[1].name, "sim.max_queue_depth");
  EXPECT_EQ(out[1].kind, 'g');
  EXPECT_EQ(out[1].value, 7u);

  // A snapshot overflowing the sample cap is rejected whole — the handler
  // counts it and keeps the link, but never holds unbounded state.
  const std::vector<obs::MetricSample> big(kMaxStatsSamples + 1, s);
  EXPECT_FALSE(decode_stats(encode_stats(big), &out));
  // Garbage payloads fail cleanly too.
  EXPECT_FALSE(decode_stats("definitely not kv", &out));
}

TEST(Fabric, StatsToJsonIsSortedAndComplete) {
  FabricStats s;
  s.workers_joined = 3;
  s.leases_granted = 12;
  s.unknown_frames = 1;
  // Exact bytes: flat object, every counter, keys sorted — the fixed
  // schema `--metrics-out` and the daemon's metrics artifact embed.
  EXPECT_EQ(s.to_json(),
            "{\"addr_rejected\":0,\"auth_rejected\":0,\"cells_requeued\":0,"
            "\"duplicate_results\":0,\"handshake_timeouts\":0,"
            "\"leases_granted\":12,\"links_dropped\":0,\"stale_results\":0,"
            "\"unknown_frames\":1,\"version_rejected\":0,"
            "\"workers_joined\":3,\"workers_lost\":0,"
            "\"workers_reattached\":0}");
}

TEST(Fabric, OneVersionAndUnknownFramesDegradeGracefully) {
  const auto cells = campaign::plan(small_gmp_spec());
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine::Options eopts;
  Engine engine(&listener, eopts);
  std::vector<RunResult> results(cells.size());
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  FrameReader reader;
  Frame f;
  auto pump_until = [&](int sock, FrameReader* r, FrameType want,
                        int steps) {
    for (int i = 0; i < steps; ++i) {
      engine.step(10);
      char buf[65536];
      for (;;) {
        const ssize_t n = recv(sock, buf, sizeof buf, 0);
        if (n <= 0) break;
        r->feed(buf, static_cast<std::size_t>(n));
      }
      while (r->next(&f)) {
        if (f.type == want) return true;
      }
    }
    return false;
  };

  // The fabric speaks one version: a previous-revision (v3) worker is
  // turned away, and the BYE names the only version accepted.
  const int fd2 = dial(listener.address(), &err);
  ASSERT_GE(fd2, 0) << err;
  fcntl(fd2, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.version = 3;
  hello.role = "worker";
  hello.name = "legacy";
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd2, bytes.data(), bytes.size()));
  FrameReader reader2;
  ASSERT_TRUE(pump_until(fd2, &reader2, FrameType::kBye, 200));
  const std::string reason = decode_bye(f.payload);
  EXPECT_NE(reason.find("peer v3, expected v4"), std::string::npos) << reason;
  EXPECT_EQ(engine.stats.version_rejected, 1);
  EXPECT_EQ(engine.stats.workers_joined, 0);
  close(fd2);

  // A current worker joins.
  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  fcntl(fd, F_SETFL, O_NONBLOCK);
  hello.version = kProtocolVersion;
  hello.name = "current";
  bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  ASSERT_TRUE(pump_until(fd, &reader, FrameType::kHello, 200));

  // An unknown frame type in the reserved window is ignored and counted; a
  // malformed STATS payload likewise. Neither kills the link: a lease
  // request sent *after* both still gets a grant.
  bytes = encode_frame(static_cast<FrameType>(29), "from the future");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  bytes = encode_frame(FrameType::kStats, "definitely not kv");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  bytes = encode_frame(FrameType::kLease, encode_lease_request(2));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  ASSERT_TRUE(pump_until(fd, &reader, FrameType::kLease, 400));
  EXPECT_EQ(engine.stats.unknown_frames, 2);
  EXPECT_EQ(engine.stats.links_dropped, 0);
  EXPECT_EQ(engine.stats.workers_joined, 1);
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, FleetMetricsAndFlightRideAlongWithoutTouchingRecords) {
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 3, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  FlightRecorder flight;
  obs::Registry reg;
  std::map<std::string, std::vector<obs::MetricSample>> worker_stats;
  fopts.flight = &flight;
  fopts.obs = &reg;
  fopts.worker_stats_out = &worker_stats;
  std::map<std::string, int> per_worker;
  fopts.on_result_worker = [&](const std::string& id) { ++per_worker[id]; };
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  // The whole observability plane is a side channel: record bytes match
  // the in-process baseline exactly.
  EXPECT_EQ(record_strings(results), baseline);

  // Every result was attributed to some worker for the fleet line.
  int attributed = 0;
  for (const auto& [id, n] : per_worker) attributed += n;
  EXPECT_EQ(attributed, static_cast<int>(cells.size()));

  // Workers shipped cumulative STATS snapshots; folded together their
  // cells_executed counters cover the whole campaign (clean run: every
  // cell executed exactly once).
  ASSERT_FALSE(worker_stats.empty());
  std::map<std::string, obs::MetricSample> fleet;
  for (const auto& [id, samples] : worker_stats) {
    obs::merge_samples(&fleet, samples);
  }
  const auto cx = fleet.find("fabric.worker.cells_executed");
  ASSERT_NE(cx, fleet.end());
  EXPECT_EQ(cx->second.value, cells.size());
  const auto leases = fleet.find("fabric.worker.leases");
  ASSERT_NE(leases, fleet.end());
  EXPECT_EQ(static_cast<int>(leases->second.value), stats.leases_granted);

  // The coordinator's stage histogram saw one queue-wait per slot.
  bool saw_wait = false;
  for (const auto& m : reg.snapshot()) {
    if (m.name == "fabric.coord.queue_wait_us.count") {
      saw_wait = true;
      EXPECT_EQ(m.value, cells.size());
    }
  }
  EXPECT_TRUE(saw_wait);

  // Flight ring: every worker that shipped stats also left lease-grant
  // and result events, plus a join.
  std::map<std::string, int> grants, res, joins;
  for (const FlightRecord& r : flight.snapshot()) {
    if (r.event == FlightEvent::kLeaseGrant) ++grants[r.worker];
    if (r.event == FlightEvent::kResult) ++res[r.worker];
    if (r.event == FlightEvent::kJoin) ++joins[r.worker];
  }
  for (const auto& [id, samples] : worker_stats) {
    EXPECT_GE(grants[id], 1) << id;
    EXPECT_GE(res[id], 1) << id;
    EXPECT_EQ(joins[id], 1) << id;
  }
}

TEST(FabricService, StatusAnswersLiveAndDoneCoversTheFleet) {
  const CampaignSpec spec = small_gmp_spec();
  const auto cells = campaign::plan(spec);
  std::string err;
  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  FlightRecorder flight;
  obs::Registry reg;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.engine.flight = &flight;
    sopts.engine.obs = &reg;
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  Client client;
  ASSERT_TRUE(client.connect(listener.address(), "", "test-client", &err))
      << err;

  // STATUS before any job: deterministic schema, zero counters.
  std::string status;
  ASSERT_TRUE(client.status(&status, &err)) << err;
  for (const char* key :
       {"\"daemon\":", "\"jobs\":", "\"workers\":", "\"fabric\":",
        "\"fleet_metrics\":"}) {
    EXPECT_NE(status.find(key), std::string::npos) << key << " in " << status;
  }
  EXPECT_NE(status.find("\"active\":0"), std::string::npos) << status;

  // Run a job; the metrics document built from its results must carry the
  // deterministic metrics object plus the fleet/fabric side channel that
  // DONE brought back.
  client.set_job(spec.name, 0);
  const auto results = client.run_cells(cells, {}, &err);
  EXPECT_TRUE(err.empty()) << err;
  const std::string metrics = campaign::metrics_json(
      spec.name, static_cast<int>(cells.size()), results,
      [&](campaign::json::Writer* w) { client.fleet_sections(w); });
  ASSERT_TRUE(campaign::json::parse(metrics).has_value()) << metrics;
  for (const char* key : {"\"campaign\":", "\"metrics\":", "\"fabric\":",
                          "\"fleet\":", "\"merged\":", "\"workers\":"}) {
    EXPECT_NE(metrics.find(key), std::string::npos) << key;
  }

  // STATUS again: the daemon's counters advanced.
  ASSERT_TRUE(client.status(&status, &err)) << err;
  EXPECT_NE(status.find("\"jobs_accepted\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"jobs_completed\":1"), std::string::npos) << status;

  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);
  // The daemon's flight ring saw the worker join and the leases flow.
  bool saw_join = false, saw_grant = false;
  for (const FlightRecord& r : flight.snapshot()) {
    saw_join |= r.event == FlightEvent::kJoin;
    saw_grant |= r.event == FlightEvent::kLeaseGrant;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_grant);
}

}  // namespace
}  // namespace pfi::fabric
