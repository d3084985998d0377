#include "search/corpus.hpp"

#include <algorithm>

#include "campaign/json.hpp"
#include "campaign/kv.hpp"

namespace pfi::search {

using campaign::FaultEvent;
using campaign::json::Value;
using campaign::FaultSchedule;
using core::scriptgen::FaultKind;

namespace {

/// Fixed-point rarity scale: weight(feature) = kScale / count(feature).
constexpr std::uint64_t kScale = 1u << 16;

bool kind_from_string(const std::string& s, FaultKind* out) {
  if (s == "drop") *out = FaultKind::kDrop;
  else if (s == "delay") *out = FaultKind::kDelay;
  else if (s == "duplicate") *out = FaultKind::kDuplicate;
  else if (s == "corrupt") *out = FaultKind::kCorrupt;
  else if (s == "reorder") *out = FaultKind::kReorder;
  else return false;
  return true;
}

std::optional<FaultSchedule> schedule_from_value(const Value& arr,
                                                 std::string* err) {
  if (arr.kind != Value::Kind::kArray) {
    if (err != nullptr) *err = "schedule is not a JSON array";
    return std::nullopt;
  }
  FaultSchedule s;
  for (const Value& ev : arr.items) {
    if (ev.kind != Value::Kind::kObject) {
      if (err != nullptr) *err = "schedule event is not an object";
      return std::nullopt;
    }
    FaultEvent e;
    e.type = ev.str_or("type", "");
    if (e.type.empty() || !kind_from_string(ev.str_or("fault", ""), &e.kind)) {
      if (err != nullptr) *err = "schedule event has a bad type/fault field";
      return std::nullopt;
    }
    e.on_send = ev.str_or("side", "send") == "send";
    const Value* d = ev.find("delay_ms");
    if (!ev.int_field("occurrence", &e.occurrence) ||
        !ev.int_field("copies", &e.copies) ||
        !ev.int_field("offset", &e.corrupt_offset) ||
        !ev.int_field("batch", &e.batch) ||
        (d != nullptr &&
         (d->kind != Value::Kind::kNumber ||
          !campaign::kv::to_scaled(d->text, sim::kMillisecond, &e.delay)))) {
      if (err != nullptr) *err = "schedule event has a bad numeric field";
      return std::nullopt;
    }
    s.events.push_back(std::move(e));
  }
  return s;
}

}  // namespace

std::optional<FaultSchedule> schedule_from_json(const std::string& array_json,
                                                std::string* err) {
  const auto v = campaign::json::parse(array_json);
  if (!v) {
    if (err != nullptr) *err = "malformed schedule JSON";
    return std::nullopt;
  }
  return schedule_from_value(*v, err);
}

int Corpus::admit(CorpusEntry entry) {
  if (digests_.count(entry.digest) != 0) return -1;
  const int index = static_cast<int>(entries_.size());
  digests_[entry.digest] = index;
  for (const std::string& f : entry.features) ++feature_count_[f];
  entries_.push_back(std::move(entry));
  return index;
}

std::size_t Corpus::pick_weighted(SplitMix64& rng) const {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> weights;
  weights.reserve(entries_.size());
  for (const CorpusEntry& e : entries_) {
    std::uint64_t w = 1;  // floor so featureless entries stay reachable
    for (const std::string& f : e.features) {
      const auto it = feature_count_.find(f);
      const std::uint32_t n = it == feature_count_.end() ? 1 : it->second;
      w += kScale / std::max<std::uint32_t>(n, 1);
    }
    weights.push_back(w);
    total += w;
  }
  std::uint64_t r = rng.below(total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return entries_.size() - 1;  // unreachable for total > 0
}

std::string Corpus::to_jsonl() const {
  std::string out;
  for (const CorpusEntry& e : entries_) {
    campaign::json::Writer w;
    w.begin_object();
    w.kv("digest", e.digest);
    w.kv("iter", e.iteration);
    w.kv("parent", e.parent);
    w.kv("op", e.op);
    w.key("features").begin_array();
    for (const std::string& f : e.features) w.value(f);
    w.end_array();
    w.key("schedule");
    e.schedule.to_json(w);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

bool Corpus::load_jsonl(const std::string& text, std::string* err) {
  std::size_t at = 0;
  int lineno = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    ++lineno;
    if (line.empty()) continue;
    const auto v = campaign::json::parse(line);
    if (!v || v->kind != Value::Kind::kObject) {
      if (err != nullptr) {
        *err = "corpus line " + std::to_string(lineno) + ": malformed JSON";
      }
      return false;
    }
    CorpusEntry e;
    e.digest = v->str_or("digest", "");
    if (e.digest.empty()) {
      if (err != nullptr) {
        *err = "corpus line " + std::to_string(lineno) + ": missing digest";
      }
      return false;
    }
    if (!v->int_field("iter", &e.iteration) ||
        !v->int_field("parent", &e.parent)) {
      if (err != nullptr) {
        *err = "corpus line " + std::to_string(lineno) + ": bad iter/parent";
      }
      return false;
    }
    e.op = v->str_or("op", "seed");
    if (const auto* feats = v->find("features")) {
      for (const Value& f : feats->items) {
        if (f.kind == Value::Kind::kString) e.features.push_back(f.text);
      }
    }
    const auto* sched = v->find("schedule");
    if (sched == nullptr) {
      if (err != nullptr) {
        *err = "corpus line " + std::to_string(lineno) + ": missing schedule";
      }
      return false;
    }
    std::string serr;
    auto s = schedule_from_value(*sched, &serr);
    if (!s) {
      if (err != nullptr) {
        *err = "corpus line " + std::to_string(lineno) + ": " + serr;
      }
      return false;
    }
    e.schedule = std::move(*s);
    admit(std::move(e));  // duplicate digests (replayed seeds) are skipped
  }
  return true;
}

}  // namespace pfi::search
