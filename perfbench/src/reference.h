// Response capture and verification against an in-process reference.
//
// Every response is checked outside the timed region, against a mirror of
// each circuit that the verifier rebuilds edit by edit:
//   * analyze results (summary and per-element detail) and every sweep row
//     must equal sta::check_schedule on the mirror, bit for bit;
//   * a min result's Tc* must agree with opt::minimize_cycle_time_graph
//     within 1e-6 relative, and the builtins' with the paper's optima;
//   * a report's worst setup slack (the "typical" corner's, for signoff
//     reports) must equal the analysis of the same state.
//
// Each circuit has one writing connection, so its states form a sequence.
// A read is matched to a state by causality (edits answered before it was
// sent happened before it; edits sent after it was answered did not) and,
// when reads from other connections overlap an edit, by the content
// fingerprint in its payload.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Response payloads, deduplicated: repeated reads of an unchanged state
/// return the same bytes, and the big ones (detail analyzes, reports) would
/// otherwise dominate the benchmark's memory. Thread-safe.
class ResponseStore {
 public:
  /// Store the part of a response line after `"result":` (or the whole
  /// line when it is not a success envelope); returns its id.
  int add(std::string_view payload);
  const std::string& get(int id) const { return payloads_[static_cast<size_t>(id)]; }
  size_t size() const { return payloads_.size(); }

 private:
  std::mutex mu_;
  std::unordered_map<size_t, std::vector<int>> by_hash_;
  std::vector<std::string> payloads_;
};

struct Record {
  int conn = -1;        // -1: the set-up connection
  int index = 0;        // into Workload::setup (conn -1) or streams[conn]
  std::int64_t send_ns = 0;  // first request byte written
  std::int64_t recv_ns = 0;  // response newline read
  bool ok = false;      // a {"id":N,"ok":true,...} envelope with the right id
  bool cached = false;
  int payload = -1;     // ResponseStore id; -1 = no response
};

/// Split one response line (without '\n') into a Record's envelope flags
/// and a stored payload.
void capture(std::string_view line, long id, ResponseStore& store, Record& rec);

struct Verification {
  long attempted = 0;
  long errors = 0;      // error responses
  long mismatches = 0;  // responses that disagree with the reference
  long missing = 0;     // no response
  std::vector<std::string> samples;  // the first few failure descriptions

  long failed() const { return errors + mismatches + missing; }
  /// Add another verification's counts and its first failure samples.
  void add(const Verification& other);
};

/// Check every record. `timed` holds the records of all connections, each
/// connection's in send order. `threads` bounds the verification workers.
Verification verify(const Workload& w, const ResponseStore& store,
                    const std::vector<Record>& setup, const std::vector<Record>& timed,
                    int threads);

/// The request a record answers.
const Request& request_of(const Workload& w, const Record& rec);

}  // namespace perfbench
