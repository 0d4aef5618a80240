// Workload `grid`: a real grid::ProjectServer on loopback with 4000
// preloaded workunits (replication 2, quorum 2), drained by three
// volunteer clients in a closed loop — WORK, a trivial deterministic
// executor, SUBMIT — each RPC on its own TCP connection, as GridClient
// does. Closed loop, because a volunteer waits for its scheduler reply.
//
// The table size is part of the workload: ServerLogic's deadline scan
// walks every workunit on each WORK request, so a bigger table is a
// different workload, not a longer run. Runs repeat passes on fresh
// servers instead.

#include <linux/inet_diag.h>
#include <linux/netlink.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "grid/messages.hpp"
#include "grid/server.hpp"
#include "grid/server_logic.hpp"
#include "grid/tcp_util.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace grid = vgrid::grid;
namespace obs = vgrid::obs;

constexpr int kClients = 3;
constexpr std::uint64_t kWorkunits = 4000;
constexpr int kReplication = 2;
/// Effort every result reports; the credit basis.
constexpr double kCpuSeconds = 1.0;
constexpr int kMinPasses = 5;
/// A client gives up after this many failed RPCs in a row.
constexpr int kMaxConsecutiveFailures = 20;

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::vector<std::string> make_payloads(std::uint64_t seed) {
  std::vector<std::string> payloads;
  payloads.reserve(kWorkunits);
  std::uint64_t state = seed;
  for (std::uint64_t i = 0; i < kWorkunits; ++i) {
    // splitmix64
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    payloads.push_back("wu-" + std::to_string(i + 1) + "-" +
                       hex64(z ^ (z >> 31)));
  }
  return payloads;
}

/// The volunteers' application: FNV-1a 64 of the payload.
std::string execute(const std::string& payload) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : payload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return "r-" + hex64(hash);
}

grid::Workunit workunit(const std::string& payload) {
  grid::Workunit wu;
  wu.kind = "bench";
  wu.payload = payload;
  wu.replication = kReplication;
  wu.quorum = kReplication;
  return wu;
}

std::string client_id(int index) {
  return "volunteer-" + std::to_string(index);
}

/// IPv4 TCP sockets in TIME_WAIT, counted through NETLINK_SOCK_DIAG.
/// Returns -1 when the kernel does not answer.
long count_timewait() {
  const int fd = ::socket(AF_NETLINK, SOCK_DGRAM | SOCK_CLOEXEC,
                          NETLINK_SOCK_DIAG);
  if (fd < 0) return -1;
  struct {
    nlmsghdr header;
    inet_diag_req_v2 request;
  } message{};
  message.header.nlmsg_len = sizeof(message);
  message.header.nlmsg_type = SOCK_DIAG_BY_FAMILY;
  message.header.nlmsg_flags = NLM_F_REQUEST | NLM_F_DUMP;
  message.request.sdiag_family = AF_INET;
  message.request.sdiag_protocol = IPPROTO_TCP;
  message.request.idiag_states = 1U << TCP_TIME_WAIT;
  long count = -1;
  if (::send(fd, &message, sizeof(message), 0) ==
      static_cast<ssize_t>(sizeof(message))) {
    std::vector<char> buffer(1 << 16);
    long seen = 0;
    for (bool done = false; !done;) {
      const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
      if (n <= 0) break;
      for (std::size_t offset = 0;
           offset + sizeof(nlmsghdr) <= static_cast<std::size_t>(n);) {
        nlmsghdr header;
        std::memcpy(&header, buffer.data() + offset, sizeof(header));
        if (header.nlmsg_type == NLMSG_DONE) {
          count = seen;
          done = true;
          break;
        }
        if (header.nlmsg_type == NLMSG_ERROR || header.nlmsg_len == 0) {
          done = true;
          break;
        }
        ++seen;
        offset += NLMSG_ALIGN(header.nlmsg_len);
      }
    }
  }
  ::close(fd);
  return count;
}

enum class RpcKind : std::uint8_t { kWork, kSubmit };

/// One RPC as the client saw it: connect to reply read.
struct RpcRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int client = 0;
  RpcKind kind = RpcKind::kWork;
};

struct ClientRun {
  std::vector<RpcRecord> rpcs;
  std::uint64_t failures = 0;
  std::uint64_t no_work = 0;
  std::uint64_t rejected = 0;
  SpanLog spans;
};

/// The benchmark's own volunteer: a loop over grid::tcp and the grid
/// codec. After reading each reply it closes with SO_LINGER {1, 0}, so the
/// connection ends in an RST and leaves no TIME_WAIT socket behind: every
/// volunteer shares one IP, and thousands of TIME_WAIT sockets would make
/// back-to-back runs inherit kernel state. The server's path is unchanged.
class Volunteer {
 public:
  Volunteer(std::uint16_t port, int index, std::atomic<std::uint64_t>& ids,
            ClientRun& out, bool traced)
      : port_(port),
        index_(index),
        id_(client_id(index)),
        ids_(ids),
        out_(out),
        spans_(traced ? &out.spans : nullptr) {}

  void run() {
    int consecutive_failures = 0;
    while (consecutive_failures < kMaxConsecutiveFailures) {
      const auto work = call(RpcKind::kWork, grid::WorkRequest{id_},
                             grid::parse_work_response);
      if (!work) {
        ++consecutive_failures;
        continue;
      }
      consecutive_failures = 0;
      // No deadlines and no mismatches, so nothing is ever reissued: after
      // NO_WORK this volunteer can never be given work again.
      if (!work->has_work) {
        ++out_.no_work;
        return;
      }
      const grid::Result result{work->workunit.id, id_,
                                execute(work->workunit.payload), kCpuSeconds};
      const auto ack = call(RpcKind::kSubmit, grid::SubmitRequest{result},
                            grid::parse_submit_response);
      if (!ack) {
        ++consecutive_failures;
      } else if (!ack->accepted) {
        ++out_.rejected;
      }
    }
  }

 private:
  template <typename Request, typename Parse>
  auto call(RpcKind kind, const Request& request, Parse parse)
      -> decltype(parse(std::string())) {
    const std::uint64_t id = spans_ ? ids_.fetch_add(1) : 0;
    const SpanScope rpc(spans_, "grid.rpc", id);
    std::string line;
    {
      const SpanScope codec(spans_, "grid.codec", id, rpc.index());
      line = grid::serialize(request);
    }
    RpcRecord record{wall_ns(), 0, index_, kind};
    std::string reply;
    bool replied = false;
    try {
      std::optional<grid::tcp::Fd> fd;
      {
        const SpanScope connect(spans_, "grid.tcp.connect", id, rpc.index());
        fd.emplace(grid::tcp::connect_loopback(port_));
      }
      {
        const SpanScope wait(spans_, "grid.tcp.wait", id, rpc.index());
        replied = grid::tcp::write_line(fd->get(), line) &&
                  grid::tcp::read_line(fd->get(), reply);
      }
      record.end_ns = wall_ns();
      const linger reset{1, 0};
      ::setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    } catch (const std::exception&) {
      replied = false;
    }
    decltype(parse(std::string())) parsed;
    if (replied) {
      const SpanScope codec(spans_, "grid.codec", id, rpc.index());
      parsed = parse(reply);
    }
    if (!parsed) {
      ++out_.failures;
    } else {
      out_.rpcs.push_back(record);
    }
    return parsed;
  }

  std::uint16_t port_;
  int index_;
  std::string id_;
  std::atomic<std::uint64_t>& ids_;
  ClientRun& out_;
  SpanLog* spans_;
};

/// Totals every pass must reach, rendered for comparison with ref/grid.txt.
std::string render_totals(const grid::ServerStats& stats,
                          const std::vector<grid::StatsResponse>& accounts) {
  std::uint64_t results = 0;
  double credit = 0.0;
  bool credit_matches = true;
  for (const grid::StatsResponse& account : accounts) {
    results += account.results_accepted;
    credit += account.credit;
    credit_matches = credit_matches &&
                     account.credit == static_cast<double>(
                                           account.results_accepted) *
                                           kCpuSeconds;
  }
  char text[512];
  std::snprintf(text, sizeof(text),
                "workunits_validated %llu\nworkunits_invalid %llu\n"
                "results_received %llu\nresults_accepted %llu\n"
                "credit %.17g\ncredit_equals_matching_results %s\n",
                static_cast<unsigned long long>(stats.workunits_validated),
                static_cast<unsigned long long>(stats.workunits_invalid),
                static_cast<unsigned long long>(stats.results_received),
                static_cast<unsigned long long>(results), credit,
                credit_matches ? "yes" : "no");
  return text;
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<ClientRun> clients;
  grid::ServerStats stats;
  std::string totals;

  std::uint64_t rpcs() const {
    std::uint64_t total = 0;
    for (const ClientRun& client : clients) total += client.rpcs.size();
    return total;
  }
};

/// Start a server, preload the table (the set-up), drain it with the
/// volunteers, stop the server. `traced` records the volunteers' spans.
Pass run_pass(const std::vector<std::string>& payloads, bool traced,
              std::uint64_t pass_id) {
  Pass pass;
  const std::int64_t setup_start = wall_ns();
  grid::ProjectServer server;
  for (const std::string& payload : payloads) {
    server.add_workunit(workunit(payload));
  }
  pass.setup_s = seconds_since(setup_start);

  pass.clients.resize(kClients);
  std::atomic<std::uint64_t> ids{pass_id << 32};
  const std::int64_t start = wall_ns();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      ClientRun& out = pass.clients[static_cast<std::size_t>(c)];
      out.rpcs.reserve(kWorkunits * kReplication);
      threads.emplace_back([&server, &ids, &out, c, traced] {
        try {
          Volunteer(server.port(), c, ids, out, traced).run();
        } catch (const std::exception&) {
          ++out.failures;  // fails the pass's check instead of terminating
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  pass.wall_s = seconds_since(start);

  pass.stats = server.stats();
  std::vector<grid::StatsResponse> accounts;
  for (int c = 0; c < kClients; ++c) {
    accounts.push_back(server.client_account(client_id(c)));
  }
  pass.totals = render_totals(pass.stats, accounts);
  server.stop();
  return pass;
}

void check_pass(const Pass& pass, const std::string& expected,
                Report& report) {
  std::uint64_t failures = 0, rejected = 0;
  for (const ClientRun& client : pass.clients) {
    failures += client.failures;
    rejected += client.rejected;
  }
  report.tally(pass.rpcs() + failures, failures + rejected,
               "grid: RPC failed or result rejected");
  report.check(pass.totals == expected,
               "grid: totals differ from the reference:\n" + pass.totals);
}

std::string ref_name() { return "grid.txt"; }

/// The run's WORK/SUBMIT sequence, in the order the server answered it,
/// replayed into a socket-free ServerLogic preloaded with the same table.
/// Returns µs per RPC.
double replay_logic_us(const std::vector<std::string>& payloads,
                       const Pass& pass) {
  std::vector<RpcRecord> sequence;
  for (const ClientRun& client : pass.clients) {
    sequence.insert(sequence.end(), client.rpcs.begin(), client.rpcs.end());
  }
  std::sort(sequence.begin(), sequence.end(),
            [](const RpcRecord& a, const RpcRecord& b) {
              return a.end_ns < b.end_ns;
            });
  std::vector<std::string> outputs;
  for (const std::string& payload : payloads) {
    outputs.push_back(execute(payload));
  }
  std::vector<grid::WorkRequest> requests;
  for (int c = 0; c < kClients; ++c) requests.push_back({client_id(c)});

  grid::ServerLogic logic;
  for (const std::string& payload : payloads) {
    logic.add_workunit(workunit(payload));
  }
  std::vector<std::optional<grid::WorkunitId>> held(kClients);
  std::int64_t now_ns = 0;
  const std::int64_t start = wall_ns();
  for (const RpcRecord& rpc : sequence) {
    auto& holding = held[static_cast<std::size_t>(rpc.client)];
    if (rpc.kind == RpcKind::kWork) {
      now_ns += 1000;
      const grid::WorkResponse work = logic.next_work(
          requests[static_cast<std::size_t>(rpc.client)], now_ns);
      holding.reset();
      if (work.has_work) holding = work.workunit.id;
    } else if (holding) {
      (void)logic.accept_result(grid::SubmitRequest{
          {*holding, requests[static_cast<std::size_t>(rpc.client)].client_id,
           outputs[*holding - 1], kCpuSeconds}});
      holding.reset();
    }
  }
  return static_cast<double>(wall_ns() - start) / 1e3 /
         static_cast<double>(sequence.size());
}

std::vector<double> rpc_latencies_us(const Pass& pass) {
  std::vector<double> latencies;
  for (const ClientRun& client : pass.clients) {
    for (const RpcRecord& rpc : client.rpcs) {
      latencies.push_back(static_cast<double>(rpc.end_ns - rpc.start_ns) /
                          1e3);
    }
  }
  return latencies;
}

}  // namespace

void grid_run(const Options& options, Report& report) {
  const long timewait = count_timewait();
  const std::vector<std::string> payloads = make_payloads(options.seed);
  const std::string expected = read_ref(options, ref_name());

  EndToEnd e2e;
  // Per-pass summaries only, so memory does not grow with the run length.
  std::vector<double> rpc_per_s, p50_us, p99_us;
  std::size_t rpcs = 0;
  // Untimed warm-up pass: caches fill and lazy set-up finishes.
  check_pass(run_pass(payloads, false, 0), expected, report);

  e2e.start_passes();
  const Budget budget(options.seconds, kMinPasses);
  for (int i = 0; budget.more(i); ++i) {
    const Pass pass = run_pass(payloads, false, 0);
    check_pass(pass, expected, report);
    e2e.add_setup(pass.setup_s);
    e2e.add_pass(pass.wall_s);
    rpc_per_s.push_back(static_cast<double>(pass.rpcs()) / pass.wall_s);
    const std::vector<double> latencies = rpc_latencies_us(pass);
    p50_us.push_back(quantile(latencies, 0.50));
    p99_us.push_back(quantile(latencies, 0.99));
    rpcs += latencies.size();
  }

  report_end_to_end(e2e, report);
  report.metric("rpc_per_s", median(rpc_per_s), "RPC/s", rpc_per_s.size(),
                false);
  // Medians over passes of each pass's percentile; n counts the RPCs.
  report.metric("rpc_p50_us", median(p50_us), "us", rpcs, false);
  report.metric("rpc_p99_us", median(p99_us), "us", rpcs, false);
  report.metric("net.timewait_at_start", static_cast<double>(timewait),
                "count", 1, false);
}

void grid_layers(const Options& options, double budget_s, Report& report,
                 SpanLog& spans) {
  const long timewait = count_timewait();
  const std::vector<std::string> payloads = make_payloads(options.seed);
  const std::string expected = read_ref(options, ref_name());

  alloc::start();
  check_pass(run_pass(payloads, false, 0), expected, report);
  alloc::stop();
  report_allocs("grid", alloc::count(), alloc::bytes(), report);

  // One registry and profiler across all traced passes: the server
  // resolves its instruments from them when it is constructed.
  obs::Registry registry;
  obs::register_defaults(registry);
  obs::Profiler profiler;
  std::vector<double> untraced_s, traced_s, logic_us;
  std::uint64_t work_requests = 0, results = 0, validated = 0, no_work = 0,
                rejected = 0;
  const Budget budget(budget_s, 1);
  for (int i = 0; budget.more(i); ++i) {
    const Pass plain = run_pass(payloads, false, 0);
    check_pass(plain, expected, report);
    untraced_s.push_back(plain.wall_s);
    logic_us.push_back(replay_logic_us(payloads, plain));

    std::optional<Pass> traced;
    {
      obs::ScopedRegistry registry_scope(&registry);
      obs::ScopedProfiler profiler_scope(&profiler);
      traced.emplace(
          run_pass(payloads, true, static_cast<std::uint64_t>(i) + 1));
    }
    check_pass(*traced, expected, report);
    traced_s.push_back(traced->wall_s);
    for (const ClientRun& client : traced->clients) {
      spans.append(client.spans);
      no_work += client.no_work;
      rejected += client.rejected;
    }
    work_requests += traced->stats.work_requests;
    results += traced->stats.results_received;
    validated += traced->stats.workunits_validated;
  }

  const std::vector<double> connect_us = spans.durations_us("grid.tcp.connect");
  const std::vector<double> wait_us = spans.durations_us("grid.tcp.wait");
  const std::vector<double> codec_us = spans.durations_us("grid.codec");
  const std::vector<double> rpc_us = spans.durations_us("grid.rpc");
  report.metric("grid.connect_us_p50", median(connect_us), "us",
                connect_us.size());
  report.metric("grid.wait_us_p50", median(wait_us), "us", wait_us.size());
  report.metric("grid.wait_us_p99", quantile(wait_us, 0.99), "us",
                wait_us.size());
  // Serialize and parse of one RPC together.
  report.metric("grid.codec_us",
                std::accumulate(codec_us.begin(), codec_us.end(), 0.0) /
                    static_cast<double>(rpc_us.size()),
                "us", rpc_us.size());
  const auto server_us = [&](const char* type, double q) {
    return static_cast<double>(
               registry
                   .histogram("grid.server.rpc_ns",
                              obs::rpc_server_ns_buckets(), {{"type", type}})
                   .percentile(q)) /
           1e3;
  };
  const auto served = [&](const char* type) {
    return static_cast<std::size_t>(
        registry
            .histogram("grid.server.rpc_ns", obs::rpc_server_ns_buckets(),
                       {{"type", type}})
            .count());
  };
  report.metric("grid.server.work_us_p50", server_us("work", 0.50), "us",
                served("work"));
  report.metric("grid.server.work_us_p99", server_us("work", 0.99), "us",
                served("work"));
  report.metric("grid.server.submit_us_p50", server_us("submit", 0.50), "us",
                served("submit"));
  report.metric("grid.server.submit_us_p99", server_us("submit", 0.99), "us",
                served("submit"));
  double traced_total_s = 0.0;
  for (const double s : traced_s) traced_total_s += s;
  report.metric(
      "grid.server.busy_share",
      100.0 *
          static_cast<double>(
              scope_totals(profiler, "grid.server.handle_connection")
                  .inclusive_ns) /
          (traced_total_s * 1e9),
      "%", traced_s.size());
  report.metric("grid.logic_us_per_rpc", median(logic_us), "us",
                logic_us.size());
  const auto per_pass = [&](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(traced_s.size());
  };
  report.metric("grid.work_requests", per_pass(work_requests), "count",
                traced_s.size());
  report.metric("grid.results", per_pass(results), "count", traced_s.size());
  report.metric("grid.validated", per_pass(validated), "count",
                traced_s.size());
  report.metric("grid.no_work", per_pass(no_work), "count", traced_s.size());
  report.metric("grid.rejected", per_pass(rejected), "count",
                traced_s.size());
  report.metric("net.timewait_at_start", static_cast<double>(timewait),
                "count", 1);
  report_trace_overhead("grid", untraced_s, traced_s, report);
}

void grid_write_refs(const Options& options) {
  const Pass pass = run_pass(make_payloads(options.seed), false, 0);
  write_ref(options, ref_name(), pass.totals);
}

}  // namespace perfbench
