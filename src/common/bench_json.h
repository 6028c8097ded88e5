#ifndef MDTS_COMMON_BENCH_JSON_H_
#define MDTS_COMMON_BENCH_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace mdts {

/// One benchmark record: ("field", raw JSON value) pairs, in emission
/// order. Values are already-formatted JSON fragments (use JsonStr /
/// JsonNum below), so records can nest arrays or objects freely.
using BenchFields = std::vector<std::pair<std::string, std::string>>;

/// JSON string literal with the characters that can appear in bench names
/// and machine strings escaped.
std::string JsonStr(const std::string& s);

/// Shortest round-trip-faithful JSON number for a double ("%.17g" trimmed);
/// NaN and infinities, which JSON lacks, are emitted as null.
std::string JsonNum(double v);

/// Inserts or replaces the record whose "bench" field equals `bench` in the
/// JSON-array results file at `path`, creating the file if needed. The file
/// layout is one record per line inside a top-level array, so diffs stay
/// line-per-benchmark and the upsert can filter lines without a JSON
/// parser. A "bench" field is prepended to the given fields automatically.
/// Returns false (after printing to stderr) if the file cannot be written.
bool UpsertBenchRecord(const std::string& path, const std::string& bench,
                       const BenchFields& fields);

/// Writes `text` to `path`, replacing the file; false (with a message on
/// stderr) when it cannot be opened or fully written. The JSON dump
/// writers (flight recorder, tracer, metrics snapshots) share it.
bool WriteTextFile(const std::string& path, const std::string& text);

}  // namespace mdts

#endif  // MDTS_COMMON_BENCH_JSON_H_
