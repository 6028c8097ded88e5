#include "obs/http_exporter.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/dspan.h"
#include "obs/flight.h"

namespace mdts {

namespace {

using obs_internal::AppendU64;

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are
/// dotted snake_case, so replacing every invalid byte with '_' under the
/// "mdts_" prefix yields a valid, readable, collision-free-in-practice
/// name ("engine.rejected.lex_order" -> "mdts_engine_rejected_lex_order").
std::string PromName(const std::string& name) {
  std::string out = "mdts_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void PromHeader(std::string* out, const std::string& pname,
                const std::string& orig, const char* type) {
  *out += "# HELP " + pname + " mdts " + type + " " + orig + "\n";
  *out += "# TYPE " + pname + " " + type + "\n";
}

}  // namespace

std::string HttpExporter::PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, v] : snapshot.counters) {
    const std::string pname = PromName(name);
    PromHeader(&out, pname, name, "counter");
    out += pname + " ";
    AppendU64(&out, v);
    out += "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string pname = PromName(name);
    PromHeader(&out, pname, name, "gauge");
    out += pname + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string pname = PromName(name);
    PromHeader(&out, pname, name, "histogram");
    size_t highest = 0;
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[b] != 0) highest = b;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b <= highest && h.count > 0; ++b) {
      cumulative += h.buckets[b];
      // Log-scale bucket b holds values < 2^b, i.e. le = 2^b - 1 ("0" for
      // the zero bucket).
      const uint64_t le = b == 0 ? 0
                                 : (b >= 64 ? UINT64_MAX
                                            : (uint64_t{1} << b) - 1);
      out += pname + "_bucket{le=\"";
      AppendU64(&out, le);
      out += "\"} ";
      AppendU64(&out, cumulative);
      out += "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} ";
    AppendU64(&out, h.count);
    out += "\n" + pname + "_sum ";
    AppendU64(&out, h.sum);
    out += "\n" + pname + "_count ";
    AppendU64(&out, h.count);
    out += "\n";
  }
  return out;
}

HttpExporter::HttpExporter(const HttpExporterOptions& options)
    : options_(options) {}

HttpExporter::~HttpExporter() { Stop(); }

bool HttpExporter::Start() {
  if (running_.load()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "http_exporter: socket: %s\n", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    std::fprintf(stderr, "http_exporter: cannot listen on 127.0.0.1:%u: %s\n",
                 options_.port, std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  running_.store(true);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpExporter::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() wakes the blocking accept() (Linux: it returns EINVAL);
  // close() then releases the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExporter::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && running_.load()) continue;
      break;  // Stop() shut the socket down (or a fatal accept error).
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpExporter::HandleConnection(int fd) {
  // A silent client may never finish its request; bound the read so the
  // single-threaded accept loop cannot wedge.
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[4096];
  size_t used = 0;
  bool complete = false;
  while (used < sizeof buf - 1) {
    const ssize_t n = ::recv(fd, buf + used, sizeof buf - 1 - used, 0);
    if (n <= 0) return;  // Timeout, reset, or EOF before a full header.
    used += static_cast<size_t>(n);
    buf[used] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      complete = true;
      break;
    }
  }
  // Request line: METHOD SP PATH SP VERSION. A header block that overflows
  // the buffer, or a line with no parseable path, is answered with a 400
  // rather than a silent close - the scraper learns its request was the
  // problem.
  std::string path;
  bool bad = !complete;
  if (!bad) {
    const char* sp1 = std::strchr(buf, ' ');
    const char* sp2 = sp1 != nullptr ? std::strchr(sp1 + 1, ' ') : nullptr;
    if (sp2 == nullptr || sp2 == sp1 + 1) {
      bad = true;
    } else {
      path.assign(sp1 + 1, sp2);
      const size_t q = path.find('?');
      if (q != std::string::npos) path.resize(q);  // Queries are ignored.
    }
  }

  std::string body;
  const char* content_type = "text/plain; charset=utf-8";
  const char* status = "200 OK";
  if (bad) {
    status = "400 Bad Request";
    body = "bad request\n";
  } else if (path == "/metrics") {
    body = PrometheusText(options_.registry->Snapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/metrics.json") {
    body = options_.registry->Snapshot().ToJson();
    content_type = "application/json";
  } else if (path == "/series.json") {
    body = options_.sampler != nullptr
               ? options_.sampler->SeriesJson()
               : std::string(
                     "{\"interval_ms\": 0, \"samples_taken\": 0, "
                     "\"windows\": [], \"alerts\": []}\n");
    content_type = "application/json";
  } else if (path == "/phases.json") {
    // Per-phase latency attribution from the "engine.phase.*_us"
    // histograms, including the exemplar (worst value + the transaction
    // id tagging it) the plain /metrics expositions do not carry.
    const MetricsSnapshot snap = options_.registry->Snapshot();
    body = "{\"phases\": {";
    bool first = true;
    for (const auto& [name, h] : snap.histograms) {
      static constexpr char kPrefix[] = "engine.phase.";
      static constexpr size_t kPrefixLen = sizeof kPrefix - 1;
      if (name.compare(0, kPrefixLen, kPrefix) != 0) continue;
      std::string phase = name.substr(kPrefixLen);
      if (phase.size() > 3 && phase.compare(phase.size() - 3, 3, "_us") == 0) {
        phase.resize(phase.size() - 3);
      }
      body += first ? "" : ", ";
      first = false;
      body += "\"" + phase + "\": {\"count\": ";
      AppendU64(&body, h.count);
      body += ", \"sum_us\": ";
      AppendU64(&body, h.sum);
      body += ", \"p50_us\": ";
      AppendU64(&body, h.Percentile(50));
      body += ", \"p99_us\": ";
      AppendU64(&body, h.Percentile(99));
      body += ", \"max_us\": ";
      AppendU64(&body, h.max);
      body += ", \"exemplar\": {\"value_us\": ";
      AppendU64(&body, h.exemplar_value);
      body += ", \"txn\": ";
      AppendU64(&body, h.exemplar_tag);
      body += "}}";
    }
    body += "}}\n";
    content_type = "application/json";
  } else if (path == "/flight.json") {
    body = options_.flight != nullptr
               ? options_.flight->ToJson()
               : std::string("{\"meta\": {\"rings\": 0, \"capacity\": 0, "
                             "\"k\": 0}, \"totals\": {\"commits\": 0, "
                             "\"aborts\": 0, \"abort_reasons\": {}}, "
                             "\"records\": []}");
    content_type = "application/json";
  } else if (path == "/paths.json") {
    body = options_.paths != nullptr
               ? options_.paths->ToJson()
               : std::string("{\"meta\": {\"retained\": 0, \"top_n\": 0}, "
                             "\"aggregates\": {\"paths\": 0, \"committed\": "
                             "0, \"total_us\": 0, \"segments\": {}}, "
                             "\"txns\": []}");
    content_type = "application/json";
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }

  std::string resp = "HTTP/1.1 ";
  resp += status;
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: ";
  AppendU64(&resp, body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  size_t off = 0;
  while (off < resp.size()) {
    const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace mdts
