// Checkpoint/resume journal (append-only JSONL).
//
// A cell's record is a pure function of (protocol, oracle, vendor, compiled
// scripts, seed, topology, budgets) — the ROADMAP's "result caching by
// script hash" observation. The journal exploits that: every completed
// record is appended, flushed, as one line
//
//   {"key":"<16-hex content hash>","record":{...record_json...}}
//
// keyed by cell_key(), a hash over everything the record depends on and
// *nothing* it doesn't (not the cell's index, not the campaign name, not
// --jobs). So after a SIGINT — or after editing one axis of the spec —
// `pfi_campaign --resume` replans, looks each planned cell up by key, and
// executes only the misses; hits splice their stored record into the new
// report byte-identically (modulo the index field, which is rewritten to
// the cell's position in the *current* plan).
//
// Append-only + flush-per-record means a campaign killed at any instant
// leaves a valid journal: the torn final line (if any) is skipped on load.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace pfi::campaign {

/// Content hash (64-bit FNV-1a, 16 hex digits) of everything a cell's
/// record is a function of. Literal-script cells hash the script file's
/// *contents* (editing the .tcl invalidates the cache); schedule cells
/// hash the compiled filter scripts.
std::string cell_key(const RunCell& cell);

/// Add journal text's key -> record lines to *entries (a malformed/torn
/// line is skipped; later lines win on duplicate keys).
void parse_journal(const std::string& text,
                   std::map<std::string, std::string>* entries);

/// parse_journal over a file's contents (missing file = empty map).
std::map<std::string, std::string> load_journal(const std::string& path);

/// Rewrite the leading "index":N of a stored record to the cell's position
/// in the current plan. Records always start {"index":N, (record_json's
/// fixed field order); anything else is returned unchanged.
std::string rewrite_index(const std::string& record, int new_index);

/// Merge several journal files into one key -> record map: within a file
/// later lines win (same as load_journal); across files the first file to
/// define a key wins. Since a record is a pure function of its key, a
/// cross-file collision with *different* bytes means corruption — those are
/// counted into *conflicts (the first-seen record is kept).
std::map<std::string, std::string> merge_journals(
    const std::vector<std::string>& paths, int* conflicts = nullptr);

/// Serialise a journal map back to JSONL, one `{"key":...,"record":...}`
/// line per entry, sorted by key: a byte-deterministic normal form, so two
/// journals holding the same records — however the campaign was split
/// across workers, hosts, or interrupted runs — compare byte-identical.
std::string journal_jsonl(const std::map<std::string, std::string>& entries);

/// Append side. One instance per campaign run; every append is flushed so
/// a kill -9 loses at most the line being written.
class Journal {
 public:
  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open for append (creates the file). Returns false on I/O failure.
  bool open(const std::string& path);
  void append(const std::string& key, const std::string& record);
  void close();
  [[nodiscard]] bool is_open() const { return f_ != nullptr; }

 private:
  std::FILE* f_ = nullptr;
};

}  // namespace pfi::campaign
