#include "common/strings.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace orx {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string AsciiLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  if (n < static_cast<int>(sizeof(buf))) return std::string(buf, n);
  // |value| >= ~1e54: all 300-odd digits, not the first 63.
  std::string out(static_cast<size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", digits, value);
  return out;
}

std::string ErrnoString(int errno_value) {
  char buf[256];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // glibc default: GNU strerror_r returns the message pointer (which may
  // be `buf` or a static immutable string) and never fails.
  return std::string(strerror_r(errno_value, buf, sizeof(buf)));
#else
  // XSI strerror_r fills `buf` and returns 0 on success.
  if (strerror_r(errno_value, buf, sizeof(buf)) != 0) {
    std::snprintf(buf, sizeof(buf), "errno %d", errno_value);
  }
  return std::string(buf);
#endif
}

}  // namespace orx
