#ifndef ORX_COMMON_STRINGS_H_
#define ORX_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace orx {

/// Splits `text` on any occurrence of `sep`; empty pieces are kept.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Splits `text` on whitespace; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `pieces` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Returns `text` lowercased (ASCII only; the datasets are ASCII).
std::string AsciiLower(std::string_view text);

/// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Formats a double with `digits` decimal places, exactly as printf's
/// "%.*f" does, however long the result.
std::string FormatDouble(double value, int digits);

/// Thread-safe strerror: the message for `errno_value` as a string.
/// std::strerror may return a pointer into shared static storage
/// (clang-tidy concurrency-mt-unsafe); this wraps strerror_r instead.
std::string ErrnoString(int errno_value);

}  // namespace orx

#endif  // ORX_COMMON_STRINGS_H_
