// Seeded mutation fuzzing of every byte-boundary decoder.
//
// Each target starts from valid inputs (encoder output, shipped specs,
// suites and scripts) and decodes a fixed number of mutants drawn from one
// SplitMix64 stream: byte flips, splices between corpus inputs, truncations
// and numeric-token swaps, stacked up to four deep. The run is fully
// deterministic, so a failure names an iteration that replays exactly.
//
// Every target must survive every mutant without crashing or hanging (the
// sanitizer CI job runs this too). The kv decoders must also be exact: an
// accepted input re-encodes to bytes that decode back to the same value.
// The in-simulation decoders (TCP header, GMP, reliable-layer and 2PC
// messages, the recognition stubs) must decode all or nothing and
// re-encode an accepted message to the bytes it was read from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/kv.hpp"
#include "campaign/runner.hpp"
#include "campaign/sandbox.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"
#include "conformance/conformance.hpp"
#include "fabric/wire.hpp"
#include "gmp/message.hpp"
#include "net/layers.hpp"
#include "pfi/gmp_stub.hpp"
#include "pfi/pfi_layer.hpp"
#include "pfi/tcp_stub.hpp"
#include "pfi/tpc_stub.hpp"
#include "script/parse.hpp"
#include "search/corpus.hpp"
#include "search/prng.hpp"
#include "sim/scheduler.hpp"
#include "tcp/header.hpp"
#include "tpc/tpc.hpp"
#include "trace/trace.hpp"
#include "xk/layer.hpp"
#include "xk/message.hpp"

namespace pfi {
namespace {

using campaign::FaultEvent;
using campaign::RunCell;
using campaign::RunResult;
using core::scriptgen::FaultKind;
using search::SplitMix64;

constexpr std::uint64_t kSeed = 0x5eed0c0dec;
constexpr int kIterations = 20000;  // per target

// --- mutation -----------------------------------------------------------------

/// Numbers that sit on a boundary of some destination type, or are not
/// quite numbers at all.
const char* const kNumbers[] = {
    "0",      "-1",       "-0",         "1e9",         "2.9",
    "+1",     "0x10",     " 1",         "1 ",          "",
    "abc",    "12junk",   "2147483647", "2147483648",  "-2147483649",
    "4294967295",         "4294967296", "9223372036854775807",
    "9223372036854775808",             "-9223372036854775809",
    "18446744073709551615",            "18446744073709551616",
    "99999999999999999999999",         "0x1.8p+0",    "-0x1p-1074",
    "inf",    "nan",      "1e999",      "9999999999999h",
};

class Mutator {
 public:
  /// `kv`: the corpus is kv payloads, so numeric swaps also happen inside
  /// re-framed entries (a raw swap almost always breaks a length prefix
  /// first, and the number read behind it would never be reached).
  Mutator(std::uint64_t seed, const std::vector<std::string>* corpus, bool kv)
      : rng_(seed), corpus_(corpus), kv_(kv) {}

  std::string next() {
    std::string s = (*corpus_)[rng_.below(corpus_->size())];
    const int stack = rng_.range(1, 4);
    for (int i = 0; i < stack; ++i) mutate(&s);
    return s;
  }

 private:
  void mutate(std::string* s) {
    switch (rng_.below(kv_ ? 5 : 4)) {
      case 0: flip(s); break;
      case 1: splice(s); break;
      case 2: truncate(s); break;
      case 3: renumber(s); break;
      default: *s = reframe(*s); break;
    }
  }

  /// Renumber inside one entry (descending into nested payloads, such as a
  /// cell in a grant or a result in RESULT) and re-encode every length.
  std::string reframe(std::string payload) {
    campaign::kv::Scan scan{payload};
    std::vector<std::pair<std::string, std::string>> entries;
    std::string k, v;
    while (scan.next(&k, &v)) entries.emplace_back(k, v);
    if (entries.empty() || scan.pos != payload.size()) {
      renumber(&payload);
      return payload;
    }
    std::string& value = entries[rng_.below(entries.size())].second;
    value = reframe(value);
    std::string out;
    for (const auto& [key, val] : entries) {
      campaign::kv::put(&out, key.c_str(), val);
    }
    return out;
  }

  void flip(std::string* s) {
    if (s->empty()) {
      s->push_back(static_cast<char>(rng_.next()));
      return;
    }
    // Bytes that delimit or terminate something in one of the formats.
    static constexpr char kInteresting[] = {'\0', '\n', ' ', '-', '"',
                                            '\\', '{', '\xff'};
    const std::size_t at = rng_.below(s->size());
    switch (rng_.below(3)) {
      case 0:
        (*s)[at] = static_cast<char>((*s)[at] ^ (1u << rng_.below(8)));
        break;
      case 1: (*s)[at] = static_cast<char>(rng_.next()); break;
      default: (*s)[at] = kInteresting[rng_.below(std::size(kInteresting))];
    }
  }

  void splice(std::string* s) {
    const std::string& other = (*corpus_)[rng_.below(corpus_->size())];
    const std::size_t from = rng_.below(other.size() + 1);
    const std::size_t len = rng_.below(other.size() - from + 1);
    const std::size_t at = rng_.below(s->size() + 1);
    const std::size_t drop = rng_.below(s->size() - at + 1);
    s->replace(at, drop, other, from, len);
  }

  void truncate(std::string* s) { s->resize(rng_.below(s->size() + 1)); }

  /// Swap one run of digits (with its sign) for a boundary number.
  void renumber(std::string* s) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < s->size(); ++i) {
      const bool digit = (*s)[i] >= '0' && (*s)[i] <= '9';
      const bool prev = i > 0 && (*s)[i - 1] >= '0' && (*s)[i - 1] <= '9';
      if (digit && !prev) starts.push_back(i);
    }
    if (starts.empty()) {
      flip(s);
      return;
    }
    std::size_t at = starts[rng_.below(starts.size())];
    std::size_t end = at;
    while (end < s->size() && (*s)[end] >= '0' && (*s)[end] <= '9') ++end;
    if (at > 0 && (*s)[at - 1] == '-') --at;
    s->replace(at, end - at, kNumbers[rng_.below(std::size(kNumbers))]);
  }

  SplitMix64 rng_;
  const std::vector<std::string>* corpus_;
  bool kv_;
};

/// Run `target` over kIterations mutants of `corpus`; the iteration index
/// rides along in every assertion message.
void fuzz(std::uint64_t salt, const std::vector<std::string>& corpus,
          const std::function<void(const std::string&, int)>& target,
          bool kv = false) {
  ASSERT_FALSE(corpus.empty());
  for (const std::string& seed_input : corpus) target(seed_input, -1);
  Mutator m(kSeed ^ salt, &corpus, kv);
  for (int i = 0; i < kIterations; ++i) target(m.next(), i);
}

// --- valid inputs ----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> files_in(const std::string& dir,
                                  const std::string& ext) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ext) out.push_back(read_file(e.path()));
  }
  std::sort(out.begin(), out.end());  // directory order is not stable
  return out;
}

RunCell sample_cell(int index) {
  RunCell c;
  c.index = index;
  c.id = "gmp/gmp-mc/delay/s" + std::to_string(1000 + index);
  c.protocol = "gmp";
  c.oracle = "agreement";
  c.seed = 1000 + static_cast<std::uint64_t>(index);
  c.jitter = 250;
  c.timeout_ms = 2000;
  c.max_sim_events = 500000;
  FaultEvent e;
  e.type = "gmp-mc";
  e.kind = FaultKind::kDelay;
  e.occurrence = 2;
  e.delay = 1500000;
  c.schedule.events = {e, e};
  c.schedule.events[1].kind = FaultKind::kCorrupt;
  c.schedule.events[1].corrupt_offset = 3;
  return c;
}

RunResult sample_result() {
  RunResult r;
  r.index = 7;
  r.id = "tcp/sunos/t1/s1";
  r.reason = "spec violation";
  r.oracle = "spec";
  r.seed = 18446744073709551615ull;
  r.faults_injected = 3;
  r.messages_seen = 12345;
  r.trace_records = 99;
  r.sim_seconds = 70.0 / 3.0;
  r.violations = {"rule-a @1.000s: detail"};
  r.steps = {"ok   expect tcp-synack @0.000s..2.000s"};
  r.coverage.digest = "0123456789abcdef";
  r.coverage.msg_types = {{"tcp-syn", 4}, {"tcp ack", 9007199254740993ull}};
  r.coverage.actions = {{"dropped", 2}};
  r.coverage.transitions = {"sunos:SYN_SENT -> ESTABLISHED"};
  r.metrics = {{"pfi.msgs", 'c', 12}, {"sim.events", 'g', 400}};
  r.timeline = "{\"ph\":\"X\"}";
  return r;
}

// --- value equality for the round trips -------------------------------------

auto fields(const RunCell& c) {
  return std::tie(c.index, c.id, c.protocol, c.oracle, c.vendor, c.schedule,
                  c.script_file, c.conform_file, c.scenario, c.seed, c.nodes,
                  c.target_node, c.warmup, c.duration, c.jitter, c.buggy,
                  c.timeout_ms, c.max_sim_events, c.capture_timeline);
}

auto fields(const RunResult& r) {
  return std::tie(r.index, r.id, r.pass, r.reason, r.oracle, r.seed,
                  r.faults_injected, r.messages_seen, r.script_errors,
                  r.trace_records, r.sim_seconds, r.violations, r.steps,
                  r.error, r.coverage.digest, r.coverage.msg_types,
                  r.coverage.actions, r.coverage.transitions, r.metrics,
                  r.timeline);
}

auto fields(const fabric::Hello& h) {
  return std::tie(h.version, h.role, h.name, h.token, h.id);
}

auto fields(const fabric::Submit& s) {
  return std::tie(s.spec_text, s.filter, s.timeout_ms, s.max_events,
                  s.retries, s.explore, s.max_workers, s.have);
}

template <typename T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fields(a[i]) != fields(b[i])) return false;
  }
  return true;
}

// --- kv targets --------------------------------------------------------------

TEST(CodecFuzz, KvScanNeverReadsPastItsInput) {
  std::string seed_input;
  campaign::kv::put(&seed_input, "a", "1");
  campaign::kv::put(&seed_input, "multi", "line\nvalue");
  campaign::kv::put(&seed_input, "empty", "");
  fuzz(1, {seed_input, fabric::encode_cell(sample_cell(0))},
       [](const std::string& in, int it) {
         campaign::kv::Scan scan{in};
         std::string k, v;
         std::size_t consumed = 0;
         while (scan.next(&k, &v)) {
           ASSERT_GT(scan.pos, consumed) << it;  // always moves forward
           ASSERT_LE(scan.pos, in.size()) << it;
           consumed = scan.pos;
         }
       }, /*kv=*/true);
}

TEST(CodecFuzz, FrameReaderSurvivesAnySplit) {
  std::string stream;
  stream += fabric::encode_frame(fabric::FrameType::kHello,
                                 fabric::encode_hello({}));
  stream += fabric::encode_frame(fabric::FrameType::kLease,
                                 fabric::encode_lease_request(4));
  stream += fabric::encode_frame(fabric::FrameType::kHeartbeat, "");
  stream += fabric::encode_frame(fabric::FrameType::kBye,
                                 fabric::encode_bye("done"));
  SplitMix64 split(kSeed);
  fuzz(2, {stream}, [&](const std::string& in, int it) {
    fabric::FrameReader reader;
    if (split.one_in(4)) reader.set_max_payload(fabric::kMaxHelloPayload);
    std::size_t at = 0;
    int frames = 0;
    fabric::Frame f;
    while (at < in.size()) {
      const std::size_t n = 1 + split.below(in.size() - at);
      reader.feed(in.data() + at, n);
      at += n;
      while (reader.next(&f)) {
        ASSERT_LT(++frames, 64) << it;
        ASSERT_LE(f.payload.size(), in.size()) << it;
      }
    }
  });
}

TEST(CodecFuzz, WireDecodeIsStrictAndExact) {
  RunResult skeleton;
  skeleton.id = "x";
  skeleton.error = "timeout";
  fuzz(3, {campaign::wire_encode(sample_result()),
           campaign::wire_encode(skeleton)},
       [](const std::string& in, int it) {
         RunResult r, back;
         if (!campaign::wire_decode(in, &r)) return;
         ASSERT_TRUE(campaign::wire_decode(campaign::wire_encode(r), &back))
             << it;
         ASSERT_TRUE(fields(r) == fields(back)) << it;
       }, /*kv=*/true);
}

TEST(CodecFuzz, FabricDecodersAreStrictAndExact) {
  using namespace fabric;
  using Target = std::function<void(const std::string&, int)>;
  Hello hello;
  hello.role = "worker";
  hello.name = "w1";
  hello.token = "secret";
  hello.id = "w7";
  Submit sub;
  sub.spec_text = "protocol gmp\ntypes gmp-mc\n";
  sub.filter = "mc";
  sub.timeout_ms = 2000;
  sub.max_workers = 2;
  sub.have = {"0123456789abcdef"};
  const std::vector<RunCell> cells = {sample_cell(0), sample_cell(1)};
  // One valid payload per decoder, each fuzzed with the whole budget.
  const std::vector<std::pair<std::string, Target>> targets = {
      {encode_hello(hello),
       [](const std::string& in, int it) {
         Hello h, h2;
         if (!decode_hello(in, &h)) return;
         ASSERT_TRUE(decode_hello(encode_hello(h), &h2)) << it;
         ASSERT_TRUE(fields(h) == fields(h2)) << it;
       }},
      {encode_lease_request(8),
       [](const std::string& in, int it) {
         int want = 0, want2 = 0;
         if (!decode_lease_request(in, &want)) return;
         ASSERT_TRUE(decode_lease_request(encode_lease_request(want), &want2));
         ASSERT_EQ(want, want2) << it;
       }},
      {encode_lease_grant(3, {0, 1}, {5, 6}, cells),
       [](const std::string& in, int it) {
         int job = 0, job2 = 0;
         std::vector<int> slots, slots2;
         std::vector<std::int64_t> epochs, epochs2;
         std::vector<RunCell> cs, cs2;
         if (!decode_lease_grant(in, &job, &slots, &epochs, &cs)) return;
         ASSERT_TRUE(decode_lease_grant(
             encode_lease_grant(job, slots, epochs, cs), &job2, &slots2,
             &epochs2, &cs2))
             << it;
         ASSERT_EQ(std::tie(job, slots, epochs),
                   std::tie(job2, slots2, epochs2))
             << it;
         ASSERT_TRUE(same(cs, cs2)) << it;
       }},
      {encode_cell(cells[0]),
       [](const std::string& in, int it) {
         RunCell c, c2;
         if (!decode_cell(in, &c)) return;
         ASSERT_TRUE(decode_cell(encode_cell(c), &c2)) << it;
         ASSERT_TRUE(fields(c) == fields(c2)) << it;
       }},
      {encode_result(3, 1, 6, sample_result()),
       [](const std::string& in, int it) {
         int job = 0, job2 = 0, slot = 0, slot2 = 0;
         std::int64_t epoch = 0, epoch2 = 0;
         RunResult r, r2;
         if (!decode_result(in, &job, &slot, &epoch, &r)) return;
         ASSERT_TRUE(decode_result(encode_result(job, slot, epoch, r), &job2,
                                   &slot2, &epoch2, &r2))
             << it;
         ASSERT_EQ(std::tie(job, slot, epoch), std::tie(job2, slot2, epoch2))
             << it;
         ASSERT_TRUE(fields(r) == fields(r2)) << it;
       }},
      {encode_stats(sample_result().metrics),
       [](const std::string& in, int it) {
         std::vector<obs::MetricSample> st, st2;
         if (!decode_stats(in, &st)) return;
         ASSERT_TRUE(decode_stats(encode_stats(st), &st2)) << it;
         ASSERT_EQ(st, st2) << it;
       }},
      {encode_bye("campaign finished"),
       [](const std::string& in, int it) {
         const std::string bye = decode_bye(in);
         ASSERT_EQ(decode_bye(encode_bye(bye)), bye) << it;
       }},
      {encode_json_line(FrameType::kDone, "{\"status\":\"ok\"}")
           .substr(5),  // the payload, past the frame header
       [](const std::string& in, int it) {
         const std::string line = decode_json_line(in);
         const std::string framed = encode_json_line(FrameType::kDone, line);
         ASSERT_EQ(decode_json_line(std::string_view(framed).substr(5)), line)
             << it;
       }},
      {encode_submit(sub),
       [](const std::string& in, int it) {
         Submit s, s2;
         if (!decode_submit(in, &s)) return;
         ASSERT_TRUE(decode_submit(encode_submit(s), &s2)) << it;
         ASSERT_TRUE(fields(s) == fields(s2)) << it;
       }},
      {encode_artifact("journal", "{\"key\":\"k\"}\n", "0123456789abcdef"),
       [](const std::string& in, int it) {
         std::string name, bytes, chunk, name2, bytes2, chunk2;
         if (!decode_artifact(in, &name, &bytes, &chunk)) return;
         ASSERT_TRUE(decode_artifact(encode_artifact(name, bytes, chunk),
                                     &name2, &bytes2, &chunk2))
             << it;
         ASSERT_EQ(std::tie(name, bytes, chunk),
                   std::tie(name2, bytes2, chunk2))
             << it;
       }},
  };
  for (std::size_t i = 0; i < targets.size(); ++i) {
    SCOPED_TRACE(i);
    fuzz(0x40 + i, {targets[i].first}, targets[i].second, /*kv=*/true);
  }
}

// --- JSON targets ------------------------------------------------------------

std::vector<std::string> json_corpus() {
  search::Corpus corpus;
  search::CorpusEntry e;
  e.schedule = sample_cell(0).schedule;
  e.digest = "aaaa";
  e.features = {"t:gmp-mc@1", "s:Stable->Suspect"};
  corpus.admit(e);
  e.digest = "bbbb";
  e.parent = 0;
  e.iteration = 4;
  e.op = "havoc";
  corpus.admit(e);
  const std::string record = campaign::record_json(sample_result());
  return {corpus.to_jsonl(),
          record,
          "{\"key\":\"0123456789abcdef\",\"record\":" + record + "}\n"};
}

TEST(CodecFuzz, JsonReaderAndCorpusLoadAreStable) {
  fuzz(5, json_corpus(), [](const std::string& in, int it) {
    if (const auto v = campaign::json::parse(in)) {
      ASSERT_LE(v->begin, v->end) << it;
      ASSERT_LE(v->end, in.size()) << it;
    }
    // An accepted corpus is a fixed point of load -> to_jsonl -> load.
    search::Corpus c, c2;
    std::string err;
    if (!c.load_jsonl(in, &err)) return;
    const std::string once = c.to_jsonl();
    ASSERT_TRUE(c2.load_jsonl(once, &err)) << it << ": " << err;
    ASSERT_EQ(c2.to_jsonl(), once) << it;
  });
}

TEST(CodecFuzz, JournalLinesLoadOnlyWholeRecords) {
  const std::string path = ::testing::TempDir() + "codec_fuzz.journal";
  std::vector<std::string> corpus = json_corpus();
  corpus.resize(3);
  corpus.erase(corpus.begin());  // journal lines and bare records
  // Lines go to the file in batches: one load per batch keeps the I/O small.
  std::string batch;
  int lines = 0;
  const auto load = [&] {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << batch;
    }
    for (const auto& [key, record] : campaign::load_journal(path)) {
      ASSERT_EQ(key.size(), 16u);
      const auto doc = campaign::json::parse(record);
      ASSERT_TRUE(doc && doc->kind == campaign::json::Value::Kind::kObject)
          << record;
    }
    batch.clear();
    lines = 0;
  };
  fuzz(6, corpus, [&](const std::string& in, int) {
    batch += in;
    if (batch.back() != '\n') batch += '\n';
    if (++lines == 100) load();
  });
  load();
  std::remove(path.c_str());
}

// --- in-simulation decoders --------------------------------------------------
//
// Corrupt faults and msg_set_byte hand these decoders hostile bytes inside
// a running simulation. A rejected message must leave the output exactly
// as it was (no partial decode); an accepted one must re-encode to the
// bytes it was read from.

std::string bytes_of(const xk::Message& m) {
  return {m.bytes().begin(), m.bytes().end()};
}

/// A segment as the TCP stub sees it: IpMeta, TCP header, payload.
std::vector<std::string> tcp_corpus() {
  std::vector<std::string> out;
  const std::uint8_t flag_sets[] = {tcp::kSyn, tcp::kSyn | tcp::kAck,
                                    tcp::kAck, tcp::kFin | tcp::kAck,
                                    tcp::kRst};
  std::uint32_t seq = 100;
  for (const std::uint8_t flags : flag_sets) {
    xk::Message m{std::string_view(flags == tcp::kAck ? "payload" : "")};
    tcp::TcpHeader h;
    h.src_port = 1025;
    h.dst_port = 80;
    h.seq = seq;
    h.ack = 4294967295u - seq;
    h.flags = flags;
    h.window = 4096;
    h.payload_len = static_cast<std::uint16_t>(m.size());
    h.push_onto(m);
    net::IpMeta{2, net::IpProto::kTcp}.push_onto(m);
    out.push_back(bytes_of(m));
    seq *= 7;
  }
  return out;
}

/// A GMP message as the GMP stub sees it: UdpMeta, RelHeader, GmpMessage.
std::vector<std::string> gmp_corpus() {
  std::vector<std::string> out;
  const gmp::MsgType types[] = {gmp::MsgType::kHeartbeat,
                                gmp::MsgType::kMembershipChange,
                                gmp::MsgType::kCommit,
                                gmp::MsgType::kDeathReport};
  std::uint32_t seq = 1;
  for (const gmp::MsgType type : types) {
    gmp::GmpMessage g;
    g.type = type;
    g.sender = 2;
    g.originator = 1;
    g.subject = type == gmp::MsgType::kDeathReport ? 3 : 0;
    g.view_id = 0x0102030405060708ull;
    if (type != gmp::MsgType::kHeartbeat) g.members = {1, 2, 3};
    xk::Message m = g.encode();
    gmp::RelHeader rel;
    rel.kind = seq % 2 == 0 ? gmp::RelKind::kData : gmp::RelKind::kRaw;
    rel.seq = seq++;
    rel.push_onto(m);
    net::UdpMeta{2, 7000, 7000}.push_onto(m);
    out.push_back(bytes_of(m));
  }
  xk::Message ack;
  gmp::RelHeader{gmp::RelKind::kAck, 9}.push_onto(ack);
  net::UdpMeta{1, 7000, 7000}.push_onto(ack);
  out.push_back(bytes_of(ack));
  return out;
}

/// A 2PC message as the TPC stub sees it: UdpMeta, TpcMessage.
std::vector<std::string> tpc_corpus() {
  std::vector<std::string> out;
  const tpc::MsgType types[] = {tpc::MsgType::kVoteReq, tpc::MsgType::kVoteYes,
                                tpc::MsgType::kDecision};
  for (const tpc::MsgType type : types) {
    tpc::TpcMessage t;
    t.type = type;
    t.txid = 77;
    t.sender = 1;
    t.decision = type == tpc::MsgType::kDecision ? tpc::Decision::kCommit
                                                 : tpc::Decision::kNone;
    if (type == tpc::MsgType::kVoteReq) t.participants = {2, 3, 4};
    xk::Message m = t.encode();
    net::UdpMeta{1, 9900, 9900}.push_onto(m);
    out.push_back(bytes_of(m));
  }
  return out;
}

auto fields(const tcp::TcpHeader& h) {
  return std::tie(h.src_port, h.dst_port, h.seq, h.ack, h.flags, h.window,
                  h.payload_len);
}

auto fields(const gmp::GmpMessage& g) {
  return std::tie(g.type, g.sender, g.originator, g.subject, g.view_id,
                  g.members);
}

auto fields(const gmp::RelHeader& r) { return std::tie(r.kind, r.seq); }

auto fields(const tpc::TpcMessage& t) {
  return std::tie(t.type, t.txid, t.sender, t.decision, t.participants);
}

/// Decode `in` at each offset with `peek`. Rejection leaves the sentinel
/// untouched; acceptance re-encodes (`encode`) to the bytes read.
template <typename T, typename Peek, typename Encode>
void check_peek(const std::string& in, int it,
                std::initializer_list<std::size_t> offsets, const T& sentinel,
                Peek peek, Encode encode) {
  const xk::Message msg{std::string_view(in)};
  for (const std::size_t at : offsets) {
    T out = sentinel;
    if (!peek(msg, at, out)) {
      ASSERT_TRUE(fields(out) == fields(sentinel)) << it << " at " << at;
      continue;
    }
    const std::string back = bytes_of(encode(out));
    ASSERT_LE(at + back.size(), in.size()) << it << " at " << at;
    ASSERT_EQ(back, in.substr(at, back.size())) << it << " at " << at;
  }
}

TEST(CodecFuzz, TcpHeaderDecodesWholeHeadersExactly) {
  tcp::TcpHeader sentinel;
  sentinel.src_port = 0xdead;
  sentinel.seq = 0xfeedface;
  sentinel.flags = 0xff;
  const auto encode = [](const tcp::TcpHeader& h) {
    xk::Message m;
    h.push_onto(m);
    return m;
  };
  fuzz(10, tcp_corpus(), [&](const std::string& in, int it) {
    check_peek(in, it, {0, net::IpMeta::kSize}, sentinel,
               &tcp::TcpHeader::peek, encode);
    // pop_from strips exactly the header it parsed, or nothing.
    xk::Message msg{std::string_view(in)};
    tcp::TcpHeader h;
    const bool popped = tcp::TcpHeader::pop_from(msg, h);
    ASSERT_EQ(bytes_of(msg),
              popped ? in.substr(tcp::TcpHeader::kSize) : in) << it;
  });
}

TEST(CodecFuzz, GmpAndRelHeadersDecodeAllOrNothing) {
  constexpr std::size_t kRelAt = net::UdpMeta::kSize;
  constexpr std::size_t kGmpAt = kRelAt + gmp::RelHeader::kSize;
  gmp::GmpMessage sentinel;
  sentinel.type = gmp::MsgType::kJoin;
  sentinel.sender = 0xdeadbeef;
  sentinel.members = {42};
  gmp::RelHeader rel_sentinel;
  rel_sentinel.kind = gmp::RelKind::kData;
  rel_sentinel.seq = 0xfeedface;
  fuzz(11, gmp_corpus(), [&](const std::string& in, int it) {
    check_peek(in, it, {0, kGmpAt}, sentinel, &gmp::GmpMessage::peek,
               [](const gmp::GmpMessage& g) { return g.encode(); });
    check_peek(in, it, {0, kRelAt}, rel_sentinel, &gmp::RelHeader::peek,
               [](const gmp::RelHeader& r) {
                 xk::Message m;
                 r.push_onto(m);
                 return m;
               });
  });
}

TEST(CodecFuzz, TpcMessageDecodesAllOrNothing) {
  tpc::TpcMessage sentinel;
  sentinel.type = tpc::MsgType::kAck;
  sentinel.txid = 0xdeadbeef;
  sentinel.participants = {42};
  fuzz(12, tpc_corpus(), [&](const std::string& in, int it) {
    check_peek(in, it, {0, net::UdpMeta::kSize}, sentinel,
               &tpc::TpcMessage::peek,
               [](const tpc::TpcMessage& t) { return t.encode(); });
  });
}

/// app / PFI / loopback: every message the app sends crosses the PFI send
/// filter, which reports msg_type, msg_len and msg_hex as a trace note.
struct StubHarness {
  sim::Scheduler sched;
  trace::TraceLog trace;
  xk::Stack stack;
  xk::AppLayer* app = nullptr;

  struct Loopback : xk::Layer {
    Loopback() : Layer("loop") {}
    void push(xk::Message m) override { send_up(std::move(m)); }
    void pop(xk::Message) override {}
  };

  explicit StubHarness(std::shared_ptr<core::PacketStub> stub) {
    app = static_cast<xk::AppLayer*>(
        stack.add(std::make_unique<xk::AppLayer>()));
    core::PfiConfig cfg;
    cfg.trace = &trace;
    cfg.stub = std::move(stub);
    auto* pfi = static_cast<core::PfiLayer*>(
        stack.add(std::make_unique<core::PfiLayer>(sched, cfg)));
    pfi->set_send_script(
        "trace_note [msg_type cur_msg] [msg_len cur_msg] [msg_hex cur_msg]");
    stack.add(std::make_unique<Loopback>());
  }

  /// The send filter's note for `msg`.
  std::string note(const xk::Message& msg) {
    trace.clear();
    app->send(msg);
    sched.run();
    return trace.size() == 1 ? trace.records().front().detail : "";
  }
};

std::string hex_of(const std::string& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

TEST(CodecFuzz, StubsRecognizeAnyMessage) {
  const char* const names[] = {
      "remote",  "proto",      "remote_port", "local_port", "src_port",
      "dst_port", "seq",       "ack",         "flags",      "window",
      "len",     "syn",        "fin",         "rst",        "ack_flag",
      "rel_kind", "rel_seq",   "type",        "sender",     "originator",
      "subject", "view_id",    "member_count", "txid",      "decision",
      "participant_count",     "id",          "bogus"};
  const std::pair<std::shared_ptr<core::PacketStub>, std::vector<std::string>>
      stubs[] = {{std::make_shared<core::TcpStub>(), tcp_corpus()},
                 {std::make_shared<core::GmpStub>(), gmp_corpus()},
                 {std::make_shared<core::TpcStub>(), tpc_corpus()},
                 {std::make_shared<core::ToyStub>(),
                  {bytes_of(core::ToyStub::make(core::ToyStub::kData, 7,
                                                "payload")),
                   bytes_of(core::ToyStub::make(core::ToyStub::kGack, 9))}}};
  std::uint64_t salt = 13;
  for (const auto& [stub, corpus] : stubs) {
    StubHarness h(stub);
    fuzz(salt++, corpus, [&](const std::string& in, int it) {
      const xk::Message msg{std::string_view(in)};
      const std::string type = stub->type_of(msg);
      ASSERT_FALSE(type.empty()) << it;
      ASSERT_FALSE(stub->summary(msg).empty()) << it;
      for (const char* name : names) (void)stub->field(msg, name);
      ASSERT_EQ(h.note(msg),
                type + " " + std::to_string(in.size()) + " " + hex_of(in))
          << it;
    });
  }
}

// --- source-text targets -----------------------------------------------------

TEST(CodecFuzz, SpecParserNeverAcceptsAMisreadNumber) {
  std::vector<std::string> corpus = files_in(PFI_SCRIPTS_DIR, ".spec");
  corpus.push_back(
      "name all\nprotocol tcp\noracle spec\ntypes tcp-syn tcp-ack\n"
      "faults drop delay\nseeds 1 5..7\nvendors sunos solaris\nburst 2\n"
      "first_occurrence 3\nside receive\ndelay_ms 250\nnodes 4\n"
      "target_node 1\nwarmup_s 2\nduration_s 60\njitter_ms 5\nbuggy true\n"
      "timeout_ms 2000\nmax_events 100000\nretries 1\n");
  fuzz(7, corpus, [](const std::string& in, int it) {
    std::string err;
    const auto spec = campaign::parse_spec(in, &err);
    if (!spec) {
      ASSERT_FALSE(err.empty()) << it;
      return;
    }
    ASSERT_FALSE(spec->seeds.empty()) << it;
  });
}

TEST(CodecFuzz, PdtParserReportsEveryRejection) {
  fuzz(8, files_in(PFI_SUITES_DIR "/tcp", ".pdt"),
       [](const std::string& in, int it) {
         std::vector<lint::Diagnostic> diags;
         const auto prog = conformance::parse(in, "fuzz.pdt", &diags);
         if (!prog) {
           ASSERT_FALSE(diags.empty()) << it;
         }
       });
}

TEST(CodecFuzz, ScriptParserSurvivesAnyText) {
  fuzz(9, files_in(PFI_SCRIPTS_DIR, ".tcl"),
       [](const std::string& in, int) {
         const script::parse::Script s = script::parse::parse_script(in);
         (void)s;
       });
}

}  // namespace
}  // namespace pfi
