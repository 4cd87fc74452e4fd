// Seeded input generation for the benchmark: circuits, schedules and the
// request stream of each workload.
//
// The daemon sees only the text produced here (.lct/.lcs and request lines).
// Everything is derived from one seed through the benchmark's own PRNG and
// its own .lct writer, so a seed names the same bytes on every toolchain and
// at every later commit of the library: std::*_distribution results are
// implementation-defined, and the library's generators and writers may
// change under the benchmark.
//
// Generated circuits are rings of latch stages with a guaranteed-convergent
// eq. 17 fixpoint under the generated schedule (see generate_circuit), so no
// request fails and every edit keeps the circuit analyzable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/circuit.h"
#include "model/clock.h"

namespace perfbench {

/// SplitMix64 with fixed integer-to-real mappings.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  int below(int n);
  /// A multiple of 1/8 in [lo, hi]. Eighths print and parse exactly, so the
  /// daemon and the benchmark's mirror hold bit-identical delays.
  double eighths(double lo, double hi);

 private:
  std::uint64_t state_;
};

struct GenPath {
  int from = 0;
  int to = 0;
  double delay = 0.0;
  double min = 0.0;
  // Edits keep the delay inside [lo, hi]; that range is what guarantees
  // convergence (see generate_circuit).
  double lo = 0.0;
  double hi = 0.0;
};

/// One circuit of a workload: either generated (paths below, .lct text) or
/// one of the library's builtin paper circuits (`builtin` non-empty).
struct GenCircuit {
  std::string key;      // session key in the daemon
  std::string builtin;  // "example1" / "example2" / "gaas", or ""
  int phases = 2;
  int latches = 0;
  int per_stage = 1;  // latches per ring stage
  double setup = 1.0;
  double dq = 2.0;
  double hold = 0.5;
  std::vector<int> phase_of;  // per latch, 1-based
  std::vector<GenPath> paths;
  /// false: loaded without a schedule, so the daemon's default (the MLP
  /// optimum) applies and the mirror takes the schedule from the load
  /// response.
  bool send_schedule = true;
  mintc::ClockSchedule schedule;
  std::string lct;
  std::string lcs;
};

/// How path delays are drawn.
enum class DelayMix {
  /// Ring edges alternate between a slow class, whose delays exceed a phase
  /// and so borrow time, and a fast class that gives the borrowed time back;
  /// long-range edges are fast. No two slow edges are adjacent on any path,
  /// so every loop has negative gain under the generated symmetric schedule,
  /// departures stay bounded and every setup check passes, whatever delays
  /// inside the classes edits pick.
  kBoundedBorrow,
  /// One class for every edge. The optimum cycle time is then set by a
  /// critical loop, as in random dense rings (and in bench_serve's circuits).
  kUniform,
};

/// A ring of `latches` latches in stages of k phases, with fan-in up to 3
/// from the previous stage and about latches/10 long-range forward edges.
GenCircuit generate_circuit(const std::string& key, int phases, int latches,
                            std::uint64_t seed, bool send_schedule, DelayMix mix);

/// A builtin paper circuit, referenced by name.
GenCircuit builtin_circuit(const std::string& key, const std::string& name);

/// The circuit as the mirror holds it: built through the Circuit API from
/// the generated numbers, not by parsing the text the daemon got.
mintc::Circuit build_circuit(const GenCircuit& gc);

enum class Verb { kLoad, kEdit, kUndo, kAnalyze, kReport, kSweep, kMin };
const char* verb_name(Verb verb);

/// One edit op: a path-delay set, or a path removal.
struct Edit {
  bool remove = false;
  int path = -1;
  double delay = 0.0;
};

struct Request {
  Verb verb = Verb::kAnalyze;
  int circuit = 0;           // index into Workload::circuits
  std::vector<Edit> edits;   // kEdit
  bool detail = false;       // kAnalyze
  bool signoff = false;      // kReport
  /// kSweep: "clock_skew" over its default range; otherwise "scale" over
  /// the default range's five factors, sent as a descending list.
  bool skew = false;
  /// The request line after the leading `{"id":N,`, ending in '}'.
  std::string body;
};

struct Workload {
  std::string name;
  int connections = 1;
  std::vector<GenCircuit> circuits;
  /// The connection whose stream edits each circuit (-1: nobody). Each
  /// circuit has one writer, so its sequence of states is a function of the
  /// seed even when other connections read it concurrently.
  std::vector<int> owner;
  /// Set-up requests, sent in order on one connection before the timed
  /// phase: builtin loads and their optimum/report checks, the workload's
  /// loads, and a warm-up: each kind of read the streams send on a circuit,
  /// once (a summary analyze where they send none).
  std::vector<Request> setup;
  /// Per connection; replayed cyclically when a run outlasts it.
  std::vector<std::vector<Request>> streams;
  /// Requests per connection the traced run replays in-process: a fixed
  /// count, so its per-layer counts compare across program versions.
  int replay_per_conn = 0;
  /// FNV-1a over every circuit text and request body, in order.
  std::uint64_t hash = 0;
};

const std::vector<std::string>& workload_names();

/// Build a workload's inputs. Throws std::invalid_argument on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Render a number as the benchmark writes it into request text (shortest
/// round-trip form).
std::string fmt_num(double v);

/// The values a sweep request steps through, in order: the service's
/// default five-step range (clock_skew 0-1; scale 0.9-1.1, reversed).
std::vector<double> sweep_values(const Request& req);

}  // namespace perfbench
