#include "sema/builtins.hpp"

#include <algorithm>
#include <map>

namespace mat2c::sema {

std::optional<BuiltinInfo> findCompilableBuiltin(const std::string& name) {
  static const std::map<std::string, BuiltinInfo> table = {
#define MAT2C_BUILTIN(name, kind, value) {name, {BuiltinKind::kind, value}},
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, ...)              \
  {name, {BuiltinKind::ElemUnary, 0.0, 1, ComplexRule::rule,                    \
          [](double x, double) -> std::optional<double> {                      \
            if (!(guard)) return std::nullopt;                                 \
            return host(x);                                                    \
          }}},
#define MAT2C_BUILTIN_BINARY(name, kind, op, host, ...)                          \
  {name, {BuiltinKind::kind, 0.0, 2, ComplexRule::Real,                         \
          [](double x, double y) -> std::optional<double> { return host(x, y); }}},
#include "sema/builtins.def"
  };
  auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

}  // namespace mat2c::sema
