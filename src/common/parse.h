#pragma once

/// \file parse.h
/// \brief Shared, hardened text-parsing helpers for the data loaders.
///
/// The TransactionDatabase / Hypergraph / RelationInstance text parsers
/// all consume the same family of line-oriented formats (whitespace- or
/// comma-separated non-negative integers, '#' comments).  These helpers
/// centralize the defensive checks the fuzzers demanded: line-length caps
/// (an unbounded line is a memory bomb), id caps (one "4294967296" token
/// must not allocate a 500 MB universe), and overflow-checked integer
/// parsing via std::from_chars instead of iostream extraction.
///
/// Every failure is a Status with a "<origin>:<line>:" prefix, never an
/// assert: malformed input is an expected condition, not a bug.

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hgm {

/// Longest accepted input line, in bytes.  Basket files for the 100k-row
/// benches stay well under this; anything longer is hostile or corrupt.
inline constexpr size_t kMaxParseLineLength = size_t{1} << 20;

/// Largest accepted item / vertex / attribute id.  Ids size the Bitset
/// universe, so the cap bounds allocation at a few MiB per row.
inline constexpr uint64_t kMaxParseId = (uint64_t{1} << 24) - 1;

/// Splits \p text into lines (handling a missing trailing newline and
/// stripping '\r'), skips '#'-comment lines, enforces kMaxParseLineLength,
/// and hands each remaining line to \p fn with its 1-based line number.
/// Stops and returns the first non-OK Status \p fn yields.
inline Status ForEachDataLine(
    std::string_view text, const std::string& origin,
    const std::function<Status(size_t line_no, std::string_view line)>& fn) {
  size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    if (line.size() > kMaxParseLineLength) {
      return Status::InvalidArgument(
          origin + ":" + std::to_string(line_no) + ": line of " +
          std::to_string(line.size()) + " bytes exceeds the " +
          std::to_string(kMaxParseLineLength) + "-byte limit");
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty() && line.front() == '#') continue;
    Status s = fn(line_no, line);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Parses \p token as an unsigned integer in [0, max_value].  Rejects
/// empty tokens, signs, non-digits, and overflow, each with a precise
/// message prefixed "<origin>:<line>:".
inline Status ParseUnsignedToken(std::string_view token, uint64_t max_value,
                                 const std::string& origin, size_t line_no,
                                 uint64_t* out) {
  // Built only on the failure paths: this runs once per token of every
  // data file, and success is the common case.
  auto where = [&] { return origin + ":" + std::to_string(line_no) + ": "; };
  if (token.empty()) {
    return Status::InvalidArgument(where() + "empty numeric token");
  }
  if (token.front() == '-' || token.front() == '+') {
    return Status::InvalidArgument(where() + "signed value '" +
                                   std::string(token) +
                                   "' (ids must be plain non-negative)");
  }
  uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange(where() + "value '" + std::string(token) +
                              "' overflows uint64");
  }
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument(where() + "non-numeric token '" +
                                   std::string(token) + "'");
  }
  if (value > max_value) {
    return Status::OutOfRange(where() + "value " + std::to_string(value) +
                              " exceeds the maximum of " +
                              std::to_string(max_value));
  }
  *out = value;
  return Status::OK();
}

/// Appends the whitespace- or comma-separated tokens of \p line to
/// \p tokens (cleared first).  Commas are treated as separators so the
/// same tokenizer serves basket, edge-list, and CSV inputs.
inline void SplitDataTokens(std::string_view line,
                            std::vector<std::string_view>* tokens) {
  tokens->clear();
  size_t i = 0;
  auto is_sep = [](char c) {
    return c == ' ' || c == '\t' || c == ',' || c == '\v' || c == '\f';
  };
  while (i < line.size()) {
    while (i < line.size() && is_sep(line[i])) ++i;
    size_t start = i;
    while (i < line.size() && !is_sep(line[i])) ++i;
    if (i > start) tokens->push_back(line.substr(start, i - start));
  }
}

}  // namespace hgm
