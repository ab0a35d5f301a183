#include "bench/reporter.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ccfp {

namespace {

/// Escapes the handful of characters that can appear in bench names.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// VmHWM from /proc/self/status in bytes, or 0 when the file or the
/// field is unavailable.
std::uint64_t ProcPeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb) * 1024;
}

/// Resets the process's RSS high-water mark (VmHWM) to its current RSS.
/// Returns false where /proc/self/clear_refs is unavailable.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace

std::uint64_t BenchReporter::PeakRssBytes() const {
  if (peak_resettable_) {
    std::uint64_t hwm = ProcPeakRssBytes();
    if (hwm != 0) return hwm;
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

BenchReporter::BenchReporter(std::string bench)
    : bench_(std::move(bench)), peak_resettable_(ResetPeakRss()) {}

void BenchReporter::Add(const std::string& name, std::uint64_t n,
                        std::uint64_t wall_ns, std::uint64_t steps) {
  AddThreaded(name, n, wall_ns, steps, 0);
}

void BenchReporter::AddThreaded(const std::string& name, std::uint64_t n,
                                std::uint64_t wall_ns, std::uint64_t steps,
                                unsigned threads) {
  entries_.push_back(
      Entry{name, n, wall_ns, steps, PeakRssBytes(), threads});
  // The next entry's window starts here.
  if (peak_resettable_) peak_resettable_ = ResetPeakRss();
}

std::string BenchReporter::ToJson() const {
  std::string out = "{\"bench\": \"" + JsonEscape(bench_) +
                    "\", \"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + JsonEscape(e.name) + "\", \"n\": " +
           std::to_string(e.n) + ", \"wall_ns\": " + std::to_string(e.wall_ns) +
           ", \"steps\": " + std::to_string(e.steps) +
           ", \"peak_rss_bytes\": " + std::to_string(e.peak_rss_bytes);
    if (e.threads != 0) out += ", \"threads\": " + std::to_string(e.threads);
    out += "}";
  }
  out += "]}\n";
  return out;
}

bool BenchReporter::WriteFile(const std::string& dir) const {
  std::string path = dir + "/BENCH_" + bench_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReporter: cannot open %s\n", path.c_str());
    return false;
  }
  std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "BenchReporter: wrote %s\n", path.c_str());
  return true;
}

}  // namespace ccfp
