// perfbench_loadgen — the benchmark's load generator.
//
//   perfbench_loadgen --workload eco_edit|signoff_read|reclock --seed N
//                     --seconds S --trace 0|1 --serve <timing_serve binary>
//                     [--trace-out trace.json]
//
// --trace 0 starts the daemon with its default settings, drives it over a
// Unix socket (created in the working directory) from closed-loop
// connections, verifies every response against the in-process reference,
// and prints the end-to-end metrics. --trace 1 is the traced run (see
// traced.cpp). The last stdout line is the JSON result either way.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "serve/json.h"

namespace perfbench {

namespace {

constexpr const char* kSocket = "perfbench.sock";

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// timing_serve as a child process listening on a Unix socket.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& bin, std::string& err) {
    int out[2];
    if (::pipe(out) != 0) {
      err = "pipe failed";
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      err = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Die with the benchmark, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(bin.c_str(), bin.c_str(), "--unix", kSocket, static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
    // Ready once it reports the listener.
    std::string text;
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    while (text.find("listening on unix:") == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const int left_ms = static_cast<int>((deadline - now_ns()) / 1'000'000);
      if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) {
        err = "timing_serve did not report its listener";
        return false;
      }
      char buf[512];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) {
        err = "timing_serve exited at start-up";
        return false;
      }
      text.append(buf, static_cast<size_t>(n));
    }
    return true;
  }

  /// The daemon's peak resident set (VmHWM), MB.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0.0;
  }

  /// SIGTERM, drain its output, reap it. True when it exited with status 0.
  bool stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    char buf[4096];
    while (out_ >= 0 && now_ns() < deadline) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 100) > 0 && ::read(out_, buf, sizeof buf) <= 0) break;
    }
    if (out_ >= 0) ::close(out_);
    out_ = -1;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      ::usleep(10000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

/// One blocking protocol connection; one request in flight at a time.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect() {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) return false;
    // A hung daemon must not hang the benchmark.
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    return true;
  }

  /// Send `frame`, read one response line (without '\n') into `line`.
  bool roundtrip(const std::string& frame, std::string& line, Record& rec) {
    rec.send_ns = now_ns();
    for (size_t off = 0; off < frame.size();) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    size_t scanned = 0;
    for (;;) {
      const size_t nl = buf_.find('\n', scanned);
      if (nl != std::string::npos) {
        rec.recv_ns = now_ns();
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      scanned = buf_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Send one request and capture its response into `rec`; false when the
/// connection failed (the record then stays "no response").
bool exchange(Conn& conn, const Request& req, long id, ResponseStore& store, Record& rec,
              std::string& line) {
  if (!conn.roundtrip(frame_of(req, id), line, rec)) {
    rec.payload = -1;
    return false;
  }
  capture(line, id, store, rec);
  return true;
}

/// One set-up: start a daemon, send every set-up request. Returns the
/// elapsed seconds, or a negative value on failure.
double set_up(const Workload& w, const Options& opt, Daemon& daemon, Conn& ctrl,
              ResponseStore& store, std::vector<Record>& records, std::string& problem) {
  const std::int64_t t0 = now_ns();
  if (!daemon.start(opt.serve_bin, problem)) return -1.0;
  if (!ctrl.connect()) {
    problem = "cannot connect to " + std::string(kSocket);
    return -1.0;
  }
  records.assign(w.setup.size(), Record{});
  std::string line;
  for (size_t i = 0; i < w.setup.size(); ++i) {
    records[i].index = static_cast<int>(i);
    if (!exchange(ctrl, w.setup[i], static_cast<long>(i) + 1, store, records[i], line)) {
      problem = "set-up connection failed";
      return -1.0;
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

std::string frame_of(const Request& req, long id, const char* extra) {
  std::string f = "{\"id\":" + std::to_string(id) + ",";
  f.append(req.body, 0, req.body.size() - 1);
  f += extra;
  f += "}\n";
  return f;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

SocketRun run_socket(const Workload& w, ResponseStore& store, const Options& opt,
                     bool want_stats) {
  SocketRun run;
  Daemon daemon;
  std::unique_ptr<Conn> ctrl;
  // Cheap set-ups repeat more, so every workload's median rests on about
  // the same amount of set-up work.
  double spent = 0.0;
  for (int rep = 0; rep < opt.setup_reps || (spent < opt.setup_seconds && rep < 25); ++rep) {
    ctrl = std::make_unique<Conn>();
    if (rep > 0) {
      if (!daemon.stop()) {
        run.daemon_ok = false;
        run.problem = "timing_serve did not exit cleanly";
      }
    }
    const double s = set_up(w, opt, daemon, *ctrl, store, run.setups.emplace_back(), run.problem);
    if (s < 0.0) {
      run.daemon_ok = false;
      return run;
    }
    run.setup_s.push_back(s);
    spent += s;
  }

  // Timed phase: every connection connects first, then all start together.
  const int n = w.connections;
  std::vector<std::vector<Record>> per_conn(static_cast<size_t>(n));
  std::vector<std::int64_t> last_ns(static_cast<size_t>(n), 0);
  std::atomic<std::int64_t> start_ns{0};
  std::latch ready(n + 1);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      const bool connected = conn.connect();
      ready.count_down();
      go.wait();
      const std::vector<Request>& stream = w.streams[static_cast<size_t>(c)];
      std::vector<Record>& out = per_conn[static_cast<size_t>(c)];
      const std::int64_t deadline =
          start_ns.load() + static_cast<std::int64_t>(opt.seconds * 1e9);
      std::string line;
      for (long pos = 0; now_ns() < deadline; ++pos) {
        Record& rec = out.emplace_back();
        rec.conn = c;
        rec.index = static_cast<int>(pos % static_cast<long>(stream.size()));
        if (!connected ||
            !exchange(conn, stream[static_cast<size_t>(rec.index)], pos + 1, store, rec, line)) {
          break;
        }
        last_ns[static_cast<size_t>(c)] = rec.recv_ns;
      }
    });
  }
  ready.arrive_and_wait();
  start_ns = now_ns();
  go.count_down();
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < n; ++c) {
    for (Record& r : per_conn[static_cast<size_t>(c)]) run.timed.push_back(r);
  }
  const std::int64_t end = *std::max_element(last_ns.begin(), last_ns.end());
  run.elapsed_s = static_cast<double>(std::max(end - start_ns.load(), std::int64_t{1})) / 1e9;

  if (want_stats) {
    Request stats;
    stats.body = "\"verb\":\"stats\"}";
    Record rec;
    std::string line;
    if (ctrl->roundtrip(frame_of(stats, 1 << 30), line, rec)) {
      mintc::Expected<mintc::serve::Json> j = mintc::serve::parse_json(line);
      if (j) run.cache_hit_ratio = j->get("result").get("cache").get("hit_rate").as_number();
    }
  }
  run.peak_rss_mb = daemon.peak_rss_mb();
  if (!daemon.stop()) {
    run.daemon_ok = false;
    run.problem = "timing_serve did not exit cleanly";
  }
  return run;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload <eco_edit|signoff_read|reclock> --seed N\n"
               "                         --seconds S --trace 0|1 --serve <timing_serve>\n"
               "                         [--trace-out file.json]\n");
  return 2;
}

int run_untraced(const Workload& w, const Options& opt) {
  ResponseStore store;
  const SocketRun run = run_socket(w, store, opt, false);
  if (run.setup_s.empty()) {
    std::fprintf(stderr, "error: %s\n", run.problem.c_str());
    return 1;
  }
  // Each set-up ran on a fresh daemon, so each is checked on its own; the
  // last one's daemon went on to serve the timed phase.
  const std::vector<Record> none;
  Verification v;
  for (size_t k = 0; k < run.setups.size(); ++k) {
    const bool last = k + 1 == run.setups.size();
    v.add(verify(w, store, run.setups[k], last ? run.timed : none, 4));
  }

  std::vector<double> all;
  std::map<Verb, std::vector<double>> by_verb;
  long ok = 0;
  for (const Record& r : run.timed) {
    if (r.payload < 0) continue;
    const double us = static_cast<double>(r.recv_ns - r.send_ns) / 1e3;
    all.push_back(us);
    by_verb[request_of(w, r).verb].push_back(us);
    ok += r.ok ? 1 : 0;
  }
  const double error_share =
      v.attempted > 0 ? static_cast<double>(v.failed()) / static_cast<double>(v.attempted) : 1.0;

  // Successful responses; any that fail verification make the run incorrect.
  const std::vector<Metric> metrics = {
      {"throughput_rps", static_cast<double>(ok) / run.elapsed_s, "1/s"},
      {"latency_p95_us", quantile(all, 0.95), "us"},
      {"setup_s", quantile(run.setup_s, 0.50), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };

  std::printf("workload %s  seed %llu  stream hash %016llx  connections %d  timed %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(w.hash), w.connections, run.elapsed_s);
  for (const Metric& m : metrics) std::printf("  %-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-18s", "set-ups (s)");
  for (const double s : run.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  // Medians are printed, not gated: short requests move most when the
  // machine slows down (see perfbench/README.md).
  std::printf("  %-18s %14.4f us     (not gated)\n", "latency_p50_us", quantile(all, 0.50));
  const std::pair<Verb, const char*> per_verb[] = {{Verb::kEdit, "edit_p50_us"},
                                                   {Verb::kAnalyze, "analyze_p50_us"},
                                                   {Verb::kReport, "report_p50_us"},
                                                   {Verb::kSweep, "sweep_p50_us"},
                                                   {Verb::kMin, "min_p50_us"}};
  for (const auto& [verb, name] : per_verb) {
    const auto it = by_verb.find(verb);
    if (it == by_verb.end()) continue;
    std::printf("  %-18s %14.4f us     (not gated; p95 %.1f us over %zu %s requests)\n", name,
                quantile(it->second, 0.50), quantile(it->second, 0.95), it->second.size(),
                verb_name(verb));
  }
  std::printf("  %-18s %14.6f share  (%ld failed of %ld attempted: %ld errors, %ld mismatches, %ld missing)\n",
              "error_share", error_share, v.failed(), v.attempted, v.errors, v.mismatches, v.missing);
  for (const std::string& s : v.samples) std::printf("  FAIL %s\n", s.c_str());
  if (!run.daemon_ok) std::printf("  FAIL %s\n", run.problem.c_str());
  print_result(v.failed() == 0 && run.daemon_ok, v.attempted, v.failed() + (run.daemon_ok ? 0 : 1),
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (arg == "--serve") {
      opt.serve_bin = val;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.serve_bin.empty() || (trace != 0 && trace != 1) ||
      !(opt.seconds > 0.0)) {
    return usage();
  }
  opt.trace = trace == 1;
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const Workload w = make_workload(opt.workload, opt.seed);
    return opt.trace ? run_traced(w, opt) : run_untraced(w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
