#include "common/bench_json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace mdts {

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    double back;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

bool UpsertBenchRecord(const std::string& path, const std::string& bench,
                       const BenchFields& fields) {
  // Collect the existing records, dropping any previous one for `bench`.
  const std::string key = "\"bench\": " + JsonStr(bench);
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      // Array brackets and blank lines are re-synthesized on write; record
      // lines may carry a trailing comma from the previous serialization.
      if (line.empty() || line[0] != '{') continue;
      if (!line.empty() && line.back() == ',') line.pop_back();
      if (line.find(key) != std::string::npos) continue;
      records.push_back(line);
    }
  }

  std::ostringstream rec;
  rec << "{\"bench\": " << JsonStr(bench);
  for (const auto& [name, value] : fields) {
    rec << ", " << JsonStr(name) << ": " << value;
  }
  rec << '}';
  records.push_back(rec.str());

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

}  // namespace mdts
