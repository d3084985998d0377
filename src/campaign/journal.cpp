#include "campaign/journal.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/json.hpp"
#include "pfi/script_file.hpp"

namespace pfi::campaign {

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void feed(std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    // Field separator: distinguishes ("ab","c") from ("a","bc").
    h ^= 0xFFu;
    h *= 1099511628211ull;
  }
  void feed_u64(std::uint64_t v) { feed(std::to_string(v)); }
  void feed_i64(std::int64_t v) { feed(std::to_string(v)); }
};

}  // namespace

std::string cell_key(const RunCell& cell) {
  Fnv1a fnv;
  fnv.feed("pfi-journal-v1");
  fnv.feed(cell.protocol);
  fnv.feed(cell.oracle);
  fnv.feed(cell.vendor);

  // New identity axes feed only when set, so every pre-existing cell keeps
  // its key (resume journals written before these axes stay valid).
  if (!cell.scenario.empty()) fnv.feed("scenario:" + cell.scenario);
  if (!cell.conform_file.empty()) {
    std::ifstream in(cell.conform_file, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      fnv.feed("conform");
      fnv.feed(ss.str());
    } else {
      fnv.feed("unreadable:" + cell.conform_file);
    }
  }

  // Hash what actually executes, not how it was named: literal cells hash
  // the script file's *contents* (editing the .tcl invalidates the cached
  // record), schedule cells hash the compiled filter scripts.
  if (!cell.script_file.empty()) {
    if (auto file = core::load_script_file(cell.script_file)) {
      fnv.feed(file->setup);
      fnv.feed(file->send);
      fnv.feed(file->receive);
    } else {
      // Unreadable now: key on the path so the (error) record still
      // caches, and fixing the file changes the key.
      fnv.feed("unreadable:" + cell.script_file);
    }
  } else {
    const core::failure::Scripts s = cell.schedule.compile();
    fnv.feed(s.setup);
    fnv.feed(s.send);
    fnv.feed(s.receive);
  }

  fnv.feed_u64(cell.seed);
  fnv.feed_i64(cell.nodes);
  fnv.feed_i64(cell.target_node);
  fnv.feed_i64(cell.warmup);
  fnv.feed_i64(cell.duration);
  fnv.feed_i64(cell.jitter);
  fnv.feed(cell.buggy ? "buggy" : "clean");
  fnv.feed_i64(cell.timeout_ms);
  fnv.feed_u64(cell.max_sim_events);

  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv.h));
  return buf;
}

void parse_journal(const std::string& text,
                   std::map<std::string, std::string>* entries) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // {"key":"<16 hex>","record":{...}}; a torn line (killed mid-append)
    // does not parse and is skipped.
    const auto doc = json::parse(line);
    if (!doc) continue;
    const json::Value* key = doc->find("key");
    const json::Value* rec = doc->find("record");
    if (key == nullptr || key->kind != json::Value::Kind::kString ||
        key->text.size() != 16 || rec == nullptr ||
        rec->kind != json::Value::Kind::kObject) {
      continue;
    }
    // The record's own bytes, exactly as journaled; later lines win.
    (*entries)[key->text] = line.substr(rec->begin, rec->end - rec->begin);
  }
}

std::map<std::string, std::string> load_journal(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  if (!in) return out;
  std::ostringstream text;
  text << in.rdbuf();
  parse_journal(text.str(), &out);
  return out;
}

std::string rewrite_index(const std::string& record, int new_index) {
  const std::string prefix = "{\"index\":";
  if (record.rfind(prefix, 0) != 0) return record;
  std::size_t end = prefix.size();
  if (end < record.size() && record[end] == '-') ++end;
  while (end < record.size() &&
         record[end] >= '0' && record[end] <= '9') {
    ++end;
  }
  if (end == prefix.size()) return record;
  return prefix + std::to_string(new_index) + record.substr(end);
}

std::map<std::string, std::string> merge_journals(
    const std::vector<std::string>& paths, int* conflicts) {
  std::map<std::string, std::string> out;
  int clashes = 0;
  for (const std::string& path : paths) {
    for (auto& [key, record] : load_journal(path)) {
      const auto it = out.find(key);
      if (it == out.end()) {
        out.emplace(key, std::move(record));
      } else if (it->second != record) {
        ++clashes;  // first-seen record wins
      }
    }
  }
  if (conflicts != nullptr) *conflicts = clashes;
  return out;
}

std::string journal_jsonl(const std::map<std::string, std::string>& entries) {
  std::string out;
  for (const auto& [key, record] : entries) {
    out += "{\"key\":\"";
    out += key;
    out += "\",\"record\":";
    out += record;
    out += "}\n";
  }
  return out;
}

bool Journal::open(const std::string& path) {
  close();
  f_ = std::fopen(path.c_str(), "a");
  return f_ != nullptr;
}

void Journal::append(const std::string& key, const std::string& record) {
  if (f_ == nullptr) return;
  std::fprintf(f_, "{\"key\":\"%s\",\"record\":%s}\n", key.c_str(),
               record.c_str());
  std::fflush(f_);  // a kill -9 loses at most this line
}

void Journal::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

}  // namespace pfi::campaign
