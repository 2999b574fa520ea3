#include "common/error.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>

namespace aeqp {

std::string error_kind(const std::exception& e) {
  if (const auto* error = dynamic_cast<const Error*>(&e)) return error->kind();
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) return "BadAlloc";
  return "std::exception";
}

}  // namespace aeqp

namespace aeqp::detail {

void throw_error(const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << msg << " (" << file << ":" << line << ")";
  throw Error(os.str());
}

void assert_fail(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "AEQP_ASSERT failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

}  // namespace aeqp::detail
