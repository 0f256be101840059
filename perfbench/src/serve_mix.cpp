// serve_mix: a closed loop of client connections to `hsim serve` on
// loopback TCP.  Each client sends its next request only when the previous
// reply has arrived.  Requests follow a seeded Zipf popularity over a query
// universe several times the result cache's capacity, so hits (stored bytes
// replayed) and misses (simulate, insert, evict) share one cache.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hsim;

constexpr double kZipfExponent = 1.0;
constexpr std::size_t kWarmupRequests = 2 * kServeCacheCapacity;
constexpr std::size_t kReferenceQueries = 16;
constexpr std::size_t kRecheckQueries = 16;
constexpr std::size_t kMaxDirectReruns = 200;
constexpr int kReplyTimeoutMs = 60000;
const char* const kDevices[] = {"a100", "4090", "h800"};

/// Zipf(kZipfExponent) popularity over the universe, rank = query index.
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, int client)
      : rng_(seed, 0x7365727665ULL, static_cast<std::uint64_t>(client + 1)) {
    static const std::vector<double> cdf = [] {
      std::vector<double> c(kServeUniverse);
      double sum = 0;
      for (std::size_t i = 0; i < kServeUniverse; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
        c[i] = sum;
      }
      for (auto& v : c) v /= sum;
      return c;
    }();
    cdf_ = &cdf;
  }
  std::uint32_t next() {
    const auto it = std::lower_bound(cdf_->begin(), cdf_->end(), rng_.uniform());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_->begin(), kServeUniverse - 1));
  }

 private:
  Rng rng_;
  const std::vector<double>* cdf_ = nullptr;
};

std::string ok_prefix(std::size_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,";
}

// --- loopback client ------------------------------------------------------------

class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Send one request line and wait for its reply line; false on error or
  /// after kReplyTimeoutMs.
  bool call(const std::string& line, std::string& reply) {
    if (fd_ < 0) return false;
    std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        reply.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) return false;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- server process -------------------------------------------------------------

/// One `hsim serve` child on an ephemeral loopback port.  The destructor
/// kills and reaps it if it is still running.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, int threads) {
    int out[2];
    if (::pipe(out) != 0) return;
    const std::string threads_arg = "--threads=" + std::to_string(threads);
    const std::string cache_arg = "--cache=" + std::to_string(kServeCacheCapacity);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(bin.c_str(), bin.c_str(), "serve", "--port=0", threads_arg.c_str(),
              cache_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(out[0]);
      return;
    }
    // The server announces "hsim serve: listening on port N".
    std::string text;
    char c = 0;
    pollfd pfd{out[0], POLLIN, 0};
    while (text.find('\n') == std::string::npos && ::poll(&pfd, 1, 10000) > 0 &&
           ::read(out[0], &c, 1) == 1) {
      text.push_back(c);
    }
    ::close(out[0]);
    const auto at = text.find("port ");
    if (at != std::string::npos) port_ = std::atoi(text.c_str() + at + 5);
  }
  ~ServerProcess() { stop(/*graceful=*/false); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// Graceful: the shutdown verb, then wait (killing after 10 s).
  /// Otherwise kill at once.  Always reaps the child.
  void stop(bool graceful) {
    if (pid_ <= 0) return;
    if (graceful && port_ > 0) {
      LineClient client(port_);
      std::string reply;
      (void)client.call(R"({"id":0,"verb":"shutdown"})", reply);
      client.close();
      for (int i = 0; i < 1000; ++i) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
          pid_ = -1;
          return;
        }
        ::usleep(10000);
      }
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  int port_ = 0;
};

/// Spawn a server and wait for its first ping reply; the time of that is
/// one set-up.
std::unique_ptr<ServerProcess> start_server(const RunOptions& options,
                                            double& setup_s) {
  const auto t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(options.hsim_bin, 1);
  if (server->port() <= 0) return nullptr;
  LineClient client(server->port());
  std::string reply;
  if (!client.call(R"({"id":0,"verb":"ping"})", reply) ||
      reply.rfind(ok_prefix(0), 0) != 0) {
    return nullptr;
  }
  setup_s = ms_since(t0) / 1000.0;
  return server;
}

// --- replies --------------------------------------------------------------------

/// The first reply seen for each query; every later reply must match it.
class FirstReplies {
 public:
  FirstReplies() : replies_(kServeUniverse) {}
  /// True when `reply` is ok and byte-equal to the first reply to `query`.
  bool check(std::uint32_t query, const std::string& reply) {
    if (reply.rfind(ok_prefix(query), 0) != 0) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& first = replies_[query];
    if (first.empty()) first = reply;
    return first == reply;
  }
  [[nodiscard]] const std::string& first(std::uint32_t query) const {
    return replies_[query];
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> replies_;
};

struct LoopResult {
  struct Op {
    double done_s = 0;  // completion, seconds since the loop started
    double ms = 0;
    double insts = 0;
  };
  std::vector<Op> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
};

/// Call fn(key, value) for every number member of every object in `v`.
template <typename Fn>
void for_each_number(const json::Value& v, Fn&& fn) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      if (child.is_number()) fn(key, child.as_double());
      for_each_number(child, fn);
    }
  } else if (v.is_array()) {
    for (const auto& child : v.as_array()) for_each_number(child, fn);
  }
}

double reply_instructions(const std::string& reply) {
  const auto parsed = json::parse(reply);
  if (!parsed) return 0;
  double total = 0;
  for_each_number(parsed.value(), [&](const std::string& key, double v) {
    if (key == "instructions") total += v;
  });
  return total;
}

/// The timed closed loop: `clients` connections, each with its own Zipf
/// stream, until the deadline.
LoopResult closed_loop(const std::vector<ServeQuery>& universe, int port,
                       std::uint64_t seed, int clients, double seconds,
                       FirstReplies& first) {
  std::vector<LoopResult> per_client(static_cast<std::size_t>(clients));
  std::vector<double> insts_of(kServeUniverse, -1);
  std::mutex insts_mutex;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_client[static_cast<std::size_t>(c)];
      LineClient client(port);
      ZipfStream stream(seed, c);
      std::string reply;
      while (ms_since(t0) < seconds * 1000.0) {
        const std::uint32_t q = stream.next();
        const auto r0 = Clock::now();
        const bool answered = client.call(universe[q].line, reply);
        const auto r1 = Clock::now();
        ++out.attempted;
        if (!answered) {
          ++out.failed;
          break;
        }
        if (!first.check(q, reply)) ++out.failed;
        double insts = 0;
        {
          const std::lock_guard<std::mutex> lock(insts_mutex);
          insts = insts_of[q];
        }
        if (insts < 0) {
          insts = reply_instructions(reply);
          const std::lock_guard<std::mutex> lock(insts_mutex);
          insts_of[q] = insts;
        }
        out.ops.push_back({ms_between(t0, r1) / 1000.0, ms_between(r0, r1), insts});
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult total;
  total.wall_s = ms_since(t0) / 1000.0;
  for (const auto& r : per_client) {
    total.ops.insert(total.ops.end(), r.ops.begin(), r.ops.end());
    total.attempted += r.attempted;
    total.failed += r.failed;
  }
  std::sort(total.ops.begin(), total.ops.end(),
            [](const LoopResult::Op& a, const LoopResult::Op& b) { return a.done_s < b.done_s; });
  return total;
}

/// peak_rss_mb of serve_mix: a fresh server answers every query of the
/// default seed's universe once, in order, over one connection.  The same
/// single-connection work in every run, so the peak repeats run to run
/// (the timed server's depends on client timing and its seed's queries).
double probe_server_rss_mb(const RunOptions& options,
                           const std::vector<ServeQuery>& universe) {
  double setup_s = 0;
  const auto server = start_server(options, setup_s);
  if (!server) return 0;
  LineClient client(server->port());
  std::string reply;
  for (const auto& query : universe) {
    if (!client.call(query.line, reply)) return 0;
  }
  client.close();
  return peak_rss_mb(server->pid());
}

/// Read one counter out of a `stats` reply: result.<section>.<key>.
std::uint64_t stats_value(const std::string& reply, const char* section,
                          const char* key) {
  const auto parsed = json::parse(reply);
  if (!parsed) return 0;
  const json::Value* result = parsed.value().find("result");
  const json::Value* group = result ? result->find(section) : nullptr;
  const json::Value* v = group ? group->find(key) : nullptr;
  return v && v->is_unsigned() ? v->as_u64() : 0;
}

void note_stats(RunReport& report, const std::string& stats) {
  const std::uint64_t hits = stats_value(stats, "cache", "hits");
  const std::uint64_t lookups = stats_value(stats, "cache", "lookups");
  std::ostringstream line;
  line << "server cache: " << hits << " hits / " << lookups << " lookups ("
       << (lookups ? 100.0 * static_cast<double>(hits) / static_cast<double>(lookups) : 0)
       << "% hits), " << stats_value(stats, "cache", "evictions") << " evictions";
  report.note(line.str());
  const std::uint64_t bad = stats_value(stats, "requests", "errors") +
                            stats_value(stats, "requests", "timeouts") +
                            stats_value(stats, "requests", "rejected");
  if (bad > 0) report.fail("server counted " + std::to_string(bad) +
                           " errors, timeouts or rejections");
}

/// Replay `queries` on a fresh in-process engine: the cold answer, to
/// compare with what the server sent.
std::vector<std::string> cold_replies(const std::vector<ServeQuery>& universe,
                                      const std::vector<std::uint32_t>& queries) {
  serve::ServeOptions options;
  options.cache_capacity = kServeCacheCapacity;
  options.threads = 1;
  serve::ServeEngine engine(options);
  serve::Session session(engine);
  std::vector<std::string> out;
  for (const auto q : queries) out.push_back(session.handle_line(universe[q].line));
  return out;
}

/// Hit-equals-cold: a seeded subset of the queries the server answered,
/// recomputed cold in-process, must match the served bytes exactly.
void verify(RunReport& report, const std::vector<ServeQuery>& universe,
            const FirstReplies& first, std::uint64_t seed) {
  Rng rng(seed, 0x7665726966ULL);
  std::vector<std::uint32_t> picks;
  for (std::size_t tries = 0; picks.size() < kRecheckQueries && tries < 10000; ++tries) {
    const auto q = static_cast<std::uint32_t>(rng.below(kServeUniverse));
    if (!first.first(q).empty() && std::find(picks.begin(), picks.end(), q) == picks.end()) {
      picks.push_back(q);
    }
  }
  const auto cold = cold_replies(universe, picks);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (cold[i] != first.first(picks[i])) ++mismatches;
  }
  report.failed += mismatches;
  report.note("cold in-process replay of " + std::to_string(picks.size()) +
              " served queries: " + std::to_string(mismatches) + " byte mismatches");
  if (mismatches > 0) report.fail("served replies differ from cold recomputation");
  check_reference_digest(report, "serve_mix reference", serve_reference_digest(),
                         kServeRecordedDigest);
}

/// The request order replayed in-process by the traced run: the warm-up
/// prefix, then the clients' streams interleaved round-robin.
class ReplayOrder {
 public:
  ReplayOrder(std::uint64_t seed, int clients) : warmup_(seed, kWarmupClient) {
    for (int c = 0; c < clients; ++c) streams_.emplace_back(seed, c);
  }
  std::uint32_t warmup() { return warmup_.next(); }
  std::uint32_t next() {
    const std::uint32_t q = streams_[turn_].next();
    turn_ = (turn_ + 1) % streams_.size();
    return q;
  }

 private:
  ZipfStream warmup_;
  std::vector<ZipfStream> streams_;
  std::size_t turn_ = 0;
};

struct ReplayPass {
  std::vector<double> op_ms;
  std::vector<double> hit_ms;
  std::vector<std::pair<std::uint32_t, double>> misses;  // query, ms
  std::uint64_t failed = 0;
  double wall_s = 0;
  std::string stats;
};

/// Replay through Session::handle_line on one ServeEngine, the same
/// dispatch path as TCP.  Traced: a serve.request span per call, and the
/// cache's hit count read around it classifies hit or miss.
ReplayPass replay(const std::vector<ServeQuery>& universe, std::uint64_t seed,
                  int clients, double seconds, Tracer* tracer) {
  serve::ServeOptions options;
  options.cache_capacity = kServeCacheCapacity;
  options.threads = 1;
  serve::ServeEngine engine(options);
  serve::Session session(engine);
  ReplayOrder order(seed, clients);
  FirstReplies first;
  ReplayPass pass;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const auto q = order.warmup();
    if (!first.check(q, session.handle_line(universe[q].line))) ++pass.failed;
  }
  const auto t0 = Clock::now();
  for (std::uint64_t op = 0; ms_since(t0) < seconds * 1000.0; ++op) {
    const auto q = order.next();
    const std::uint64_t hits_before = engine.cache().stats().hits;
    const auto r0 = Clock::now();
    std::string reply;
    {
      ScopedSpan span(tracer, "serve.request", op);
      reply = session.handle_line(universe[q].line);
    }
    const double ms = ms_since(r0);
    pass.op_ms.push_back(ms);
    if (!first.check(q, reply)) ++pass.failed;
    if (engine.cache().stats().hits > hits_before) {
      pass.hit_ms.push_back(ms);
    } else {
      pass.misses.emplace_back(q, ms);
    }
  }
  pass.wall_s = ms_since(t0) / 1000.0;
  pass.stats = session.handle_line(R"({"id":0,"verb":"stats"})");
  return pass;
}

/// Re-run simulate misses through the sm/mem public calls: the serve
/// overhead of a miss is its time minus this direct simulation.
void probe_misses(RunReport& report, const std::vector<ServeQuery>& universe,
                  const ReplayPass& pass, Tracer& tracer) {
  CounterProbe counters;
  std::vector<double> overhead_ms;
  for (const auto& [q, miss_ms] : pass.misses) {
    if (overhead_ms.size() >= kMaxDirectReruns) break;
    const ServeQuery& query = universe[q];
    if (query.verb != "simulate") continue;
    const auto& device = *arch::find_device(query.device).value();
    const auto t0 = Clock::now();
    const KernelInstance kernel = make_kernel(query.kernel, device, query.iters);
    const SoloRun plain = run_solo(device, kernel, query.warps, &tracer, q);
    overhead_ms.push_back(miss_ms - ms_since(t0));
    const SoloRun counted =
        run_solo(device, kernel, query.warps, nullptr, q, &counters.pmu);
    counters.add(plain.run_ms, counted.run_ms, counted.result);
  }
  report.set("serve.overhead_ms_p50", percentile(overhead_ms, 50));
  counters.report(report);
}

}  // namespace

std::vector<ServeQuery> serve_universe(std::uint64_t seed) {
  // The shape of each popularity rank (verb, kernel, warps, base iters) is
  // fixed, so every seed has the same hot set and the same cost mix; the
  // seed draws each query's devices and its iters within 15% of the base.
  Rng shape(0x73686170ULL);
  Rng rng(seed, 0x756e6976ULL);
  std::vector<std::string> kernels = paper_kernel_names();
  kernels.pop_back();  // dpx_fig07 is not a serve kernel
  std::vector<ServeQuery> universe;
  for (std::size_t id = 0; id < kServeUniverse; ++id) {
    ServeQuery q;
    const double u = shape.uniform();
    q.verb = u < 0.5 ? "simulate" : u < 0.7 ? "profile" : u < 0.85 ? "trace" : "sweep";
    q.kernel = kernels[shape.below(kernels.size())];
    q.warps = 1 << shape.below(4);
    const std::uint32_t base = shape.log_uniform(64, q.verb == "trace" ? 128 : 512);
    q.iters = static_cast<std::uint32_t>(base * (0.85 + 0.3 * rng.uniform()));
    const std::size_t device = rng.below(std::size(kDevices));
    q.device = kDevices[device];
    std::ostringstream line;
    line << "{\"id\":" << id << ",\"verb\":\"" << q.verb << "\",\"params\":{";
    if (q.verb == "sweep") {
      const char* other = kDevices[(device + 1 + rng.below(2)) % std::size(kDevices)];
      line << "\"devices\":[\"" << q.device << "\",\"" << other << "\"],\"kernel\":\""
           << q.kernel << "\",\"iters\":" << q.iters << ",\"warps_list\":[" << q.warps
           << "," << 2 * q.warps << "]";
    } else {
      line << "\"device\":\"" << q.device << "\",\"kernel\":\"" << q.kernel
           << "\",\"iters\":" << q.iters << ",\"warps\":" << q.warps;
    }
    line << "}}";
    q.line = line.str();
    universe.push_back(std::move(q));
  }
  return universe;
}

std::vector<std::uint32_t> serve_sequence(std::uint64_t seed, int client,
                                          std::size_t length) {
  ZipfStream stream(seed, client);
  std::vector<std::uint32_t> out(length);
  for (auto& q : out) q = stream.next();
  return out;
}

std::uint64_t serve_reply_digest(std::string_view reply) {
  Digest digest;
  const auto parsed = json::parse(reply);
  if (!parsed) return digest.add(reply).value();
  for_each_number(parsed.value(), [&](const std::string& key, double v) {
    if (key == "cycles" || key == "instructions" || key == "stall_cycles" ||
        key == "mem_transactions" || key == "warps_retired") {
      digest.add(key).add(v);
    }
  });
  return digest.value();
}

std::uint64_t serve_reference_digest() {
  const auto universe = serve_universe(kDefaultSeed);
  std::vector<std::uint32_t> queries;
  for (std::uint32_t q = 0; q < kReferenceQueries; ++q) queries.push_back(q);
  Digest digest;
  for (const auto& reply : cold_replies(universe, queries)) {
    digest.add(serve_reply_digest(reply));
  }
  return digest.value();
}

RunReport run_serve_mix(const RunOptions& options) {
  RunReport report;
  const int clients = options.threads;
  report.stamp["clients"] = std::to_string(clients);
  report.stamp["server_threads"] = "1";
  report.stamp["cache_capacity"] = std::to_string(kServeCacheCapacity);
  const auto universe = serve_universe(options.seed);

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<ServerProcess> server;
    for (int i = 0; i < kSetupReps; ++i) {
      double s = 0;
      if (server) server->stop(/*graceful=*/false);
      server = start_server(options, s);
      if (!server) {
        report.fail("hsim serve did not start or answer ping");
        return report;
      }
      setup_s.push_back(s);
    }
    FirstReplies first;
    {
      // Untimed warm-up prefix: fills the cache before timing starts.
      LineClient client(server->port());
      ZipfStream warmup(options.seed, kWarmupClient);
      std::string reply;
      for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        const auto q = warmup.next();
        if (!client.call(universe[q].line, reply) || !first.check(q, reply)) {
          ++report.failed;
        }
      }
    }
    const LoopResult loop = closed_loop(universe, server->port(), options.seed,
                                        clients, options.seconds, first);
    report.attempted = loop.attempted + kWarmupRequests;
    report.failed += loop.failed;
    {
      LineClient client(server->port());
      std::string stats;
      if (client.call(R"({"id":0,"verb":"stats"})", stats)) note_stats(report, stats);
      else report.fail("stats verb did not answer");
    }
    report.note("timed server peak RSS " + std::to_string(peak_rss_mb(server->pid())) +
                " MiB");
    server->stop(/*graceful=*/true);
    const double rss = probe_server_rss_mb(options, serve_universe(kDefaultSeed));
    verify(report, universe, first, options.seed);
    TimedPhase phase;
    phase.wall_s = loop.wall_s;
    phase.setup_s = setup_s;
    double boundary = 1.0;  // one-second windows
    for (const auto& op : loop.ops) {
      for (; op.done_s >= boundary; boundary += 1.0) phase.close_window(boundary);
      phase.add(op.ms, op.insts);
    }
    report_end_to_end(report, phase, rss, table4_model_err_pct(), options.smoke);
    return report;
  }

  const double half = options.seconds / 2;
  const ReplayPass plain = replay(universe, options.seed, clients, half, nullptr);
  Tracer tracer;
  const ReplayPass traced = replay(universe, options.seed, clients, half, &tracer);
  report.attempted = plain.op_ms.size() + traced.op_ms.size();
  report.failed = plain.failed + traced.failed;
  std::vector<double> miss_ms;
  for (const auto& [q, ms] : traced.misses) miss_ms.push_back(ms);
  const double requests = static_cast<double>(traced.op_ms.size());
  report.set("serve.hit_ratio",
             requests > 0 ? static_cast<double>(traced.hit_ms.size()) / requests : 0);
  report.set("serve.evictions",
             static_cast<double>(stats_value(traced.stats, "cache", "evictions")));
  report.set("serve.hit_ms_p50", percentile(traced.hit_ms, 50));
  report.set("serve.miss_ms_p50", percentile(miss_ms, 50));
  report.set("serve.request_ms_p99", percentile(plain.op_ms, 99));
  report.set("serve.rejected",
             static_cast<double>(stats_value(traced.stats, "requests", "rejected")));
  report.set("serve.timeouts",
             static_cast<double>(stats_value(traced.stats, "requests", "timeouts")));
  report.set("serve.errors",
             static_cast<double>(stats_value(traced.stats, "requests", "errors")));
  note_stats(report, traced.stats);
  report_trace_overhead(report, static_cast<double>(plain.op_ms.size()) / plain.wall_s,
                        requests / traced.wall_s);
  probe_misses(report, universe, traced, tracer);
  report.set("mem.setup_ms_p50", percentile(tracer.durations_ms("mem.setup"), 50));
  report.set("sm.setup_ms_p50", percentile(tracer.durations_ms("sm.setup"), 50));
  report.set("sm.run_ms_p50", percentile(tracer.durations_ms("sm.run"), 50));
  report_self_shares(report, tracer);
  tracer.write_chrome_trace(options.out_dir + "/spans-serve_mix-seed" +
                            std::to_string(options.seed) + ".json");
  return report;
}

}  // namespace perfbench
