// The socket side of the benchmark: the timing_serve daemon as a child
// process, closed-loop client connections, and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"
#include "workload.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;   // the timing_serve executable
  std::string trace_out;   // Chrome trace of the traced run ("" = none)
  int setup_reps = 5;        // set-ups per run, at least; setup_s is their median
  double setup_seconds = 2;  // ... and more (up to 25) until this much was measured
};

/// What one daemon run produced.
struct SocketRun {
  /// Every set-up's records, in order; the last set-up's daemon served the
  /// timed phase.
  std::vector<std::vector<Record>> setups;
  std::vector<Record> timed;  // every connection's, each in send order
  std::vector<double> setup_s;
  double elapsed_s = 0.0;     // timed phase: start to the last response
  double peak_rss_mb = 0.0;   // the daemon's VmHWM at the end of the run
  double cache_hit_ratio = 0.0;
  bool daemon_ok = true;      // started, answered, and exited cleanly
  std::string problem;
};

/// Start the daemon (with its default settings) at least `opt.setup_reps`
/// times, each time loading and warming up; keep the last one, run the timed phase
/// on the workload's connections, then stop it. `want_stats` asks the
/// daemon's `stats` verb for the cache hit ratio before stopping.
SocketRun run_socket(const Workload& w, ResponseStore& store, const Options& opt,
                     bool want_stats);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics);

/// The traced run (--trace 1); returns the process exit code.
int run_traced(const Workload& w, const Options& opt);

/// A request line as sent: `{"id":N,` + body, plus `extra` spliced in
/// before the closing brace.
std::string frame_of(const Request& req, long id, const char* extra = "");

}  // namespace perfbench
