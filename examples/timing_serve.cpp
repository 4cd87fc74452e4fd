// timing_serve — the timing-analysis-as-a-service daemon.
//
// Hosts a serve::TimingService (warm AnalysisSession pool + result cache)
// behind a serve::SocketServer speaking the line-delimited JSON protocol
// (src/serve/protocol.h) on a Unix-domain socket and/or loopback TCP.
//
//   timing_serve --unix /tmp/mintc.sock            # unix socket
//   timing_serve --port 0                          # ephemeral TCP port
//   timing_serve --unix s.sock --port 7317 --threads 8 --cache-mb 64
//
// Prints one "listening on ..." line per bound address (flushed, so
// wrapper scripts can wait for it), then serves until SIGINT/SIGTERM.
// --stop-after <sec> exits on its own (CI smoke jobs); --metrics-out
// dumps the obs metrics registry on shutdown.
//
// Telemetry flags:
//   --prom-out <file> [--prom-interval <sec>]   periodic Prometheus text
//       snapshots (runtime gauges refreshed before each write; default 10 s)
//   --trace-out <file>     drain the span ring buffer as Chrome trace JSON
//       on shutdown
//   --trace-buffer <N>     span ring capacity (default 65536; 0 = unbounded)
//   --slow-ms <T>          structured slow-request log above T milliseconds
//   --no-telemetry         kill request-path telemetry (overhead baseline)
//
// Observability flags (the cost-attribution / ops-dashboard layer):
//   --audit-out <file> [--audit-rotate-mb <M>]   per-request JSONL audit log
//       with trace id, verb, cache hit/miss and CostAccount totals
//   --status-html <file> [--status-interval <sec>]   periodically (and on
//       shutdown) write the live ops dashboard as a single HTML file
//   --profile [--profile-us <T>] [--profile-out <file>]   run the sampling
//       span profiler at interval T (default 2000us); --profile-out writes
//       the collapsed flamegraph text on shutdown
//
// Talk to it with timing_client, timing_tool --remote, or plain nc:
//   echo '{"verb":"load","circuit":"e1","builtin":"example1"}' | nc -U s.sock
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>

#include "obs/export.h"
#include "obs/profiler.h"
#include "serve/server.h"
#include "serve/service.h"

using namespace mintc;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::printf(
      "usage: timing_serve [--unix <path>] [--port <p>] [--threads <N>]\n"
      "                    [--cache-mb <M>] [--session-mb <M>] [--max-frame-mb <M>]\n"
      "                    [--stop-after <sec>] [--metrics-out <file>]\n"
      "                    [--prom-out <file>] [--prom-interval <sec>]\n"
      "                    [--trace-out <file>] [--trace-buffer <N>]\n"
      "                    [--slow-ms <T>] [--no-telemetry]\n"
      "                    [--audit-out <file>] [--audit-rotate-mb <M>]\n"
      "                    [--status-html <file>] [--status-interval <sec>]\n"
      "                    [--profile] [--profile-us <T>] [--profile-out <file>]\n"
      "  --port 0 picks an ephemeral port (printed). With no listener flags,\n"
      "  defaults to --port 0.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig server_config;
  serve::ServiceConfig service_config;
  std::string metrics_out;
  std::string prom_out;
  std::string trace_out;
  std::string status_html_out;
  std::string profile_out;
  long prom_interval_sec = 10;
  long status_interval_sec = 10;
  long trace_buffer = 65536;
  long stop_after_sec = 0;
  long profile_interval_us = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      server_config.unix_path = argv[++i];
    } else if (arg == "--port" && has_value) {
      server_config.tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--threads" && has_value) {
      server_config.num_threads = std::atoi(argv[++i]);
    } else if (arg == "--cache-mb" && has_value) {
      service_config.cache_bytes = static_cast<size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--session-mb" && has_value) {
      service_config.session_bytes = static_cast<size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--max-frame-mb" && has_value) {
      service_config.max_frame_bytes = static_cast<size_t>(std::atol(argv[++i])) << 20;
      server_config.max_frame_bytes = service_config.max_frame_bytes;
    } else if (arg == "--stop-after" && has_value) {
      stop_after_sec = std::atol(argv[++i]);
    } else if (arg == "--metrics-out" && has_value) {
      metrics_out = argv[++i];
    } else if (arg == "--prom-out" && has_value) {
      prom_out = argv[++i];
    } else if (arg == "--prom-interval" && has_value) {
      prom_interval_sec = std::atol(argv[++i]);
      if (prom_interval_sec < 1) prom_interval_sec = 1;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--trace-buffer" && has_value) {
      trace_buffer = std::atol(argv[++i]);
      if (trace_buffer < 0) trace_buffer = 0;
    } else if (arg == "--slow-ms" && has_value) {
      service_config.slow_request_us = 1000 * std::atol(argv[++i]);
    } else if (arg == "--no-telemetry") {
      service_config.telemetry = false;
    } else if (arg == "--audit-out" && has_value) {
      service_config.audit_path = argv[++i];
    } else if (arg == "--audit-rotate-mb" && has_value) {
      service_config.audit_rotate_bytes = static_cast<size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--status-html" && has_value) {
      status_html_out = argv[++i];
    } else if (arg == "--status-interval" && has_value) {
      status_interval_sec = std::atol(argv[++i]);
      if (status_interval_sec < 1) status_interval_sec = 1;
    } else if (arg == "--profile") {
      if (profile_interval_us <= 0) profile_interval_us = 2000;
    } else if (arg == "--profile-us" && has_value) {
      profile_interval_us = std::atol(argv[++i]);
      if (profile_interval_us < 200) profile_interval_us = 200;
    } else if (arg == "--profile-out" && has_value) {
      profile_out = argv[++i];
      if (profile_interval_us <= 0) profile_interval_us = 2000;
    } else {
      return usage();
    }
  }
  if (server_config.unix_path.empty() && server_config.tcp_port < 0) {
    server_config.tcp_port = 0;  // ephemeral loopback by default
  }

  // A daemon's span buffer must be bounded: the ring drops the oldest
  // events (counted + marked) instead of growing without limit.
  obs::Tracer::instance().set_capacity(static_cast<size_t>(trace_buffer));
  if (profile_interval_us > 0) {
    obs::Profiler::instance().start(profile_interval_us);
  }

  serve::TimingService service(service_config);
  serve::SocketServer server(service, server_config);
  const Expected<bool> started = server.start();
  if (!started) {
    std::fprintf(stderr, "error: %s\n", started.error().to_string().c_str());
    return 1;
  }
  if (!server.unix_path().empty()) {
    std::printf("listening on unix:%s\n", server.unix_path().c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto write_text_file = [](const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << content;
    return static_cast<bool>(out);
  };

  long elapsed_ms = 0;
  long next_prom_ms = prom_interval_sec * 1000;
  long next_history_ms = 1000;
  long next_status_ms = status_interval_sec * 1000;
  while (!g_stop) {
    struct timespec ts{0, 200 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
    elapsed_ms += 200;
    if (elapsed_ms >= next_history_ms) {
      // One HistoryRing sample per second: with the default 240-slot ring
      // the status sparklines cover the last four minutes.
      service.record_history_sample();
      next_history_ms += 1000;
    }
    if (!prom_out.empty() && elapsed_ms >= next_prom_ms) {
      service.sample_runtime_gauges();
      obs::write_prometheus_text(prom_out);
      next_prom_ms += prom_interval_sec * 1000;
    }
    if (!status_html_out.empty() && elapsed_ms >= next_status_ms) {
      write_text_file(status_html_out, service.status_html());
      next_status_ms += status_interval_sec * 1000;
    }
    if (stop_after_sec > 0 && elapsed_ms >= stop_after_sec * 1000) break;
  }

  server.stop();

  if (!prom_out.empty()) {
    service.sample_runtime_gauges();
    if (obs::write_prometheus_text(prom_out)) std::printf("wrote %s\n", prom_out.c_str());
  }
  if (!trace_out.empty() && obs::write_chrome_trace(trace_out)) {
    std::printf("wrote %s\n", trace_out.c_str());
  }
  if (!status_html_out.empty() &&
      write_text_file(status_html_out, service.status_html())) {
    std::printf("wrote %s\n", status_html_out.c_str());
  }
  if (profile_interval_us > 0) {
    obs::Profiler::instance().stop();
    if (!profile_out.empty() &&
        write_text_file(profile_out, obs::Profiler::instance().collapsed())) {
      std::printf("wrote %s\n", profile_out.c_str());
    }
  }

  const serve::ResultCache::Stats cs = service.cache().stats();
  const serve::TimingService::PoolStats ps = service.pool_stats();
  const long lookups = cs.hits + cs.misses;
  std::printf(
      "shut down: %ld connection%s, %zu session%s warm (%ld eviction%s), "
      "cache %ld/%ld hits (%.1f%%)\n",
      server.connections_accepted(), server.connections_accepted() == 1 ? "" : "s",
      ps.sessions, ps.sessions == 1 ? "" : "s", ps.evictions, ps.evictions == 1 ? "" : "s",
      cs.hits, lookups, lookups > 0 ? 100.0 * static_cast<double>(cs.hits) /
                                          static_cast<double>(lookups)
                                    : 0.0);
  if (!metrics_out.empty() && obs::write_metrics_json(metrics_out)) {
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
