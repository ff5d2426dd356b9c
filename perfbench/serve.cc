// The serve workload: mapinv_serve --threads=1 on a unix socket, driven by
// two closed-loop client connections from this process. Each connection
// owns a session holding the exchange mapping, a ~21k-row `db` instance and
// a small `log` instance, and repeats one fixed request cycle.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "bench.h"
#include "engine/request.h"
#include "parser/parser.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using mapinv::Json;

constexpr int kConnections = 2;
constexpr int kExchangesPerCycle = 4;
constexpr int kAppendsPerCycle = 2;
constexpr int kRowsPerAppend = 20;
/// `log` is re-put every kLogPeriod cycles, so it never holds more than
/// kRowsPerAppend * (1 + kAppendsPerCycle * kLogPeriod) rows.
constexpr int kLogPeriod = 4;
constexpr int kWarmupCycles = 2;
constexpr size_t kMaxLogRows =
    kRowsPerAppend * (1 + kAppendsPerCycle * kLogPeriod);

/// A mapinv_serve child process listening on a unix socket.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::string Start(const std::string& binary, const std::string& socket) {
    ::unlink(socket.c_str());
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return "pipe failed";
    const std::string unix_flag = "--unix=" + socket;
    pid_ = ::fork();
    if (pid_ < 0) return "fork failed";
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execl(binary.c_str(), "mapinv_serve", unix_flag.c_str(), "--threads=1",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // Wait for the one startup line.
    std::string banner;
    const Clock::time_point start = Clock::now();
    while (banner.find('\n') == std::string::npos) {
      if (MsBetween(start, Clock::now()) > 10000) {
        return "server start timed out";
      }
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return "server exited at startup";
      banner.append(buf, static_cast<size_t>(n));
    }
    if (banner.find("listening") == std::string::npos) {
      return "unexpected server banner: " + banner;
    }
    return "";
  }

  /// Peak resident set of the server (VmHWM), in MB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
      }
    }
    return 0;
  }

  /// SIGTERM drains the server; SIGKILL if it has not exited in 5 s.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point start = Clock::now();
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (MsBetween(start, Clock::now()) > 5000) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(2000);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) return false;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Call(const std::string& request, std::string* response) {
    if (!mapinv::WriteFrame(fd_, request).ok()) return false;
    mapinv::Result<bool> frame =
        mapinv::ReadFrame(fd_, mapinv::kDefaultMaxFrameBytes, response);
    return frame.ok() && *frame;
  }

 private:
  int fd_ = -1;
};

std::string Request(
    int64_t id, const char* command, const std::string& session,
    std::vector<std::pair<const char*, std::string>> fields = {}) {
  Json json = Json::MakeObject();
  json.Set("id", Json(id));
  json.Set("command", Json(command));
  json.Set("session", Json(session));
  for (auto& [key, value] : fields) json.Set(key, Json(std::move(value)));
  return json.Serialize();
}

std::string StatusOf(const std::string& response) {
  mapinv::Result<Json> json = Json::Parse(response);
  return json.ok() ? json->GetString("status") : "unparseable";
}

std::string ResultOf(const std::string& response) {
  mapinv::Result<Json> json = Json::Parse(response);
  return json.ok() ? json->GetString("result") : "";
}

enum Verb { kExchange, kAppend, kRewrite, kInvert, kPing, kPut, kVerbs };
const char* const kVerbNames[kVerbs] = {"exchange", "append", "rewrite",
                                        "invert",   "ping",   "put"};

/// Held state and results of one client connection.
struct Client {
  std::string session;
  Connection conn;
  std::string exchange_request;
  uint64_t exchanges = 0;
  std::string log_put_request;
  std::string rewrite_request;
  std::string invert_request;
  std::string ping_request;
  uint64_t append_rows = 0;
  uint64_t cycles = 0;
  uint64_t invert_requests = 0;

  std::vector<Sample> op;
  std::vector<Sample> traced_op;
  std::vector<double> latency[kVerbs];
  std::vector<double> inprocess_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double response_bytes = 0;
  double response_ms = 0;
  std::string signature;
  std::vector<std::string> errors;
};

/// The in-process side of the serve workload: the mapping and db parsed
/// once, for the reference response and the transport split.
struct Held {
  ExchangeInput input;
  std::string log_text;
  std::shared_ptr<const mapinv::TgdMapping> mapping;
  std::shared_ptr<const mapinv::Instance> db;
  /// In-process ExecuteRequest bytes of the exchange request: the first
  /// exchange on a freshly uploaded instance (which builds its indexes,
  /// visible in the response stats) and every later one.
  std::string first_exchange;
  std::string steady_exchange;
};

// Every request carries id 1, so both connections expect the same bytes.
constexpr int64_t kId = 1;

mapinv::EngineRequest InProcessExchange(const Held& held) {
  mapinv::EngineRequest request;
  request.id = kId;
  request.command = "exchange";
  request.instance_ref = "db";
  request.bound_mapping = held.mapping;
  request.bound_instance = held.db;
  return request;
}

std::string InProcessExchangeBytes(const Held& held) {
  mapinv::ExecutionOptions base;
  return mapinv::ResponseToJson(
             mapinv::ExecuteRequest(InProcessExchange(held), base))
      .Serialize();
}

/// Stats object of a response, for the work signature.
std::string StatsOf(const std::string& response) {
  mapinv::Result<Json> json = Json::Parse(response);
  const Json* stats = json.ok() ? json->Find("stats") : nullptr;
  return stats != nullptr ? stats->Serialize() : "none";
}

class Cycle {
 public:
  Cycle(Client* client, const Held* held, Clock::time_point phase)
      : c_(client), held_(held), phase_(phase) {}

  /// One request; records its latency under `verb` when `record` is set.
  bool Call(Verb verb, const std::string& request, std::string* response,
            bool record) {
    const Clock::time_point start = Clock::now();
    const bool ok = c_->conn.Call(request, response);
    const Clock::time_point end = Clock::now();
    const double ms = MsBetween(start, end);
    if (record) {
      ++c_->attempted;
      c_->latency[verb].push_back(ms);
      c_->response_bytes += static_cast<double>(response->size());
      c_->response_ms += ms;
      if (verb == kExchange) {
        (traced_ ? c_->traced_op : c_->op)
            .push_back({MsBetween(phase_, end) / 1000.0, ms});
      }
    }
    if (traced_ && signature_ != nullptr) {
      *signature_ += std::string(kVerbNames[verb]) + StatsOf(*response) + ";";
    }
    return ok;
  }

  void Fail(bool record, const std::string& what) {
    if (record) ++c_->failed;
    if (c_->errors.size() < 5) c_->errors.push_back(what);
  }

  void Check(Verb verb, const std::string& request, bool record) {
    std::string response;
    if (!Call(verb, request, &response, record)) {
      Fail(record, std::string(kVerbNames[verb]) + ": transport failure");
    } else if (StatusOf(response) != "ok") {
      Fail(record,
           std::string(kVerbNames[verb]) + ": " + response.substr(0, 200));
    }
  }

  /// exchange x4, instance.append x2, rewrite, memoized invert, ping; plus
  /// the periodic re-put of `log`.
  void Run(bool record, bool traced, std::string* signature) {
    traced_ = traced;
    signature_ = signature;
    if (c_->cycles > 0 && c_->cycles % kLogPeriod == 0) {
      Check(kPut, c_->log_put_request, record);
    }
    std::string response;
    for (int i = 0; i < kExchangesPerCycle; ++i) {
      if (!Call(kExchange, c_->exchange_request, &response, record)) {
        Fail(record, "exchange: transport failure");
      } else if (response != (c_->exchanges == 0 ? held_->first_exchange
                                                 : held_->steady_exchange)) {
        Fail(record, "exchange: response differs from in-process bytes: " +
                         response.substr(0, 200));
      }
      ++c_->exchanges;
    }
    for (int i = 0; i < kAppendsPerCycle; ++i) {
      std::string rows = "{ ";
      for (int r = 0; r < kRowsPerAppend; ++r) {
        const uint64_t v = 1000000000ull + c_->append_rows++;
        rows += (r > 0 ? ", R0(" : "R0(") + std::to_string(v) + "," +
                std::to_string(v % 97) + "," + std::to_string(v % 89) + ")";
      }
      rows += " }";
      Check(kAppend,
            Request(kId, "instance.append", c_->session,
                    {{"name", "log"}, {"delta", rows}}),
            record);
    }
    Check(kRewrite, c_->rewrite_request, record);
    Check(kInvert, c_->invert_request, record);
    ++c_->invert_requests;
    Check(kPing, c_->ping_request, record);
    if (traced && record) {
      // In-process ExecuteRequest on the same bound instance, for the
      // transport split.
      const Clock::time_point start = Clock::now();
      mapinv::ExecutionOptions base;
      mapinv::EngineResponse local =
          mapinv::ExecuteRequest(InProcessExchange(*held_), base);
      c_->inprocess_ms.push_back(MsBetween(start, Clock::now()));
      if (!local.status.ok()) Fail(record, "in-process exchange failed");
    }
    ++c_->cycles;
  }

 private:
  Client* c_;
  const Held* held_;
  Clock::time_point phase_;
  bool traced_ = false;
  std::string* signature_ = nullptr;
};

/// Opens a client's session and uploads db and log.
std::string OpenClient(Client* client, const Held& held,
                       const std::string& socket) {
  if (!client->conn.Open(socket)) return "connect failed";
  const int64_t id = kId;
  const std::string& s = client->session;
  client->log_put_request = Request(
      id, "instance.put", s, {{"name", "log"}, {"instance", held.log_text}});
  const std::string setup[] = {
      Request(id, "session.open", s, {{"mapping", held.input.mapping_text}}),
      Request(id, "instance.put", s,
              {{"name", "db"}, {"instance", held.input.source_text}}),
      client->log_put_request};
  std::string response;
  for (const std::string& request : setup) {
    if (!client->conn.Call(request, &response) || StatusOf(response) != "ok") {
      return "session set-up failed: " + response.substr(0, 200);
    }
  }
  client->exchange_request =
      Request(id, "exchange", s, {{"instance_ref", "db"}});
  client->rewrite_request =
      Request(id, "rewrite", s, {{"query", "Q(x,y) :- T0(x,y,z)"}});
  client->invert_request = Request(id, "invert", s);
  client->ping_request = Request(id, "ping", s);
  return "";
}

}  // namespace

RunResult RunServe(const RunConfig& config) {
  RunResult result;
  Held held;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Client>> clients;
  const Clock::time_point never = Clock::now();
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();
    server.reset();
    const Clock::time_point start = Clock::now();
    held.input = MakeExchangeInput(config.seed);
    held.log_text = "{ ";
    for (int r = 0; r < kRowsPerAppend; ++r) {
      held.log_text += (r > 0 ? ", R0(" : "R0(") + std::to_string(r) + ",0,0)";
    }
    held.log_text += " }";
    result.input_digest = Fnv1a(held.input.source_text);
    auto mapping = mapinv::LoadMappingSpec(held.input.mapping_text);
    if (!mapping.ok()) {
      NoteFailure(&result, "serve: " + mapping.status().ToString());
      return result;
    }
    auto db = mapinv::ParseInstance(held.input.source_text, *mapping->source);
    if (!db.ok()) {
      NoteFailure(&result, "serve: " + db.status().ToString());
      return result;
    }
    held.mapping = std::make_shared<const mapinv::TgdMapping>(*mapping);
    held.db = std::make_shared<const mapinv::Instance>(std::move(*db));
    held.first_exchange = InProcessExchangeBytes(held);
    held.steady_exchange = InProcessExchangeBytes(held);

    server = std::make_unique<ServerProcess>();
    const std::string error =
        server->Start(config.serve_binary, config.socket_path);
    if (!error.empty()) {
      NoteFailure(&result, "serve: " + error);
      return result;
    }
    for (int i = 0; i < kConnections; ++i) {
      auto client = std::make_unique<Client>();
      client->session = "bench-" + std::to_string(i);
      const std::string open_error =
          OpenClient(client.get(), held, config.socket_path);
      if (!open_error.empty()) {
        NoteFailure(&result, "serve: " + open_error);
        return result;
      }
      for (int w = 0; w < kWarmupCycles; ++w) {
        Cycle(client.get(), &held, never).Run(false, false, nullptr);
      }
      for (const std::string& warmup_error : client->errors) {
        NoteFailure(&result, "serve warm-up " + warmup_error);
      }
      client->errors.clear();
      clients.push_back(std::move(client));
    }
    result.setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  const Clock::time_point phase = Clock::now();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (uint64_t i = 0;; ++i) {
        if (MsBetween(phase, Clock::now()) / 1000.0 >= config.seconds) break;
        const bool traced = config.trace && i % 2 == 0;
        Cycle(c, &held, phase)
            .Run(true, traced, c->signature.empty() && traced ? &c->signature
                                                              : nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.timed_s = MsBetween(phase, Clock::now()) / 1000.0;
  result.peak_rss_mb = server->PeakRssMb();

  // Held state at run end and the inverse memo, from the server itself.
  double held_rows = 0;
  double memo_hits = 0;
  double invert_requests = 0;
  std::string response;
  for (auto& c : clients) {
    const std::string log_exchange =
        Request(kId, "exchange", c->session, {{"instance_ref", "log"}});
    if (!c->conn.Call(log_exchange, &response) || StatusOf(response) != "ok") {
      NoteFailure(&result, "serve: log exchange failed");
    }
    const size_t log_rows = CountFacts(ResultOf(response));
    held_rows += static_cast<double>(log_rows);
    if (log_rows > kMaxLogRows) {
      NoteFailure(&result, "serve: log holds " + std::to_string(log_rows) +
                               " rows, bound " + std::to_string(kMaxLogRows));
    }
    invert_requests += static_cast<double>(c->invert_requests);
  }
  if (clients[0]->conn.Call(Request(0, "metrics", ""), &response)) {
    mapinv::Result<Json> metrics = Json::Parse(ResultOf(response));
    const Json* sessions = metrics.ok() ? metrics->Find("sessions") : nullptr;
    for (auto& c : clients) {
      const Json* session =
          sessions != nullptr ? sessions->Find(c->session) : nullptr;
      if (session != nullptr) {
        memo_hits += static_cast<double>(session->GetInt("inverse_cache_hits"));
      }
    }
  }
  server->Stop();

  std::vector<double> latency[kVerbs];
  std::vector<double> inprocess;
  double bytes = 0;
  double ms = 0;
  std::string signature;
  for (auto& c : clients) {
    result.attempted += c->attempted;
    result.failed += c->failed;
    result.completed += c->attempted - c->failed;
    for (const std::string& error : c->errors) {
      std::fprintf(stderr, "perfbench: serve %s\n", error.c_str());
    }
    result.op.insert(result.op.end(), c->op.begin(), c->op.end());
    result.traced_op.insert(result.traced_op.end(), c->traced_op.begin(),
                            c->traced_op.end());
    for (int v = 0; v < kVerbs; ++v) {
      latency[v].insert(latency[v].end(), c->latency[v].begin(),
                        c->latency[v].end());
    }
    inprocess.insert(inprocess.end(), c->inprocess_ms.begin(),
                     c->inprocess_ms.end());
    bytes += c->response_bytes;
    ms += c->response_ms;
    signature += c->signature + "|";
  }
  result.write_ms = latency[kAppend];
  result.work_signature = Fnv1a(signature);
  const double exchange_p50 = Quantile(latency[kExchange], 0.5);
  result.tally = {
      {"serve.exchange_ms.p50", exchange_p50},
      {"serve.append_ms.p50", Quantile(latency[kAppend], 0.5)},
      {"serve.rewrite_ms.p50", Quantile(latency[kRewrite], 0.5)},
      {"serve.invert_ms.p50", Quantile(latency[kInvert], 0.5)},
      {"serve.ping_ms.p50", Quantile(latency[kPing], 0.5)},
      {"serve.transport_ms",
       inprocess.empty() ? 0 : exchange_p50 - Quantile(inprocess, 0.5)},
      {"serve.response_mb_per_s", ms > 0 ? bytes / 1e6 / (ms / 1e3) : 0},
      {"serve.memo_hit_ratio",
       invert_requests > 0 ? memo_hits / invert_requests : 0},
      {"serve.held_rows", held_rows},
  };
  return result;
}

}  // namespace perfbench
