#pragma once
/// \file indexed_name.hpp
/// Generated labels such as "v3", "X12" or "s0": a prefix and an index.

#include <cstddef>
#include <string>
#include <string_view>

namespace kertbn {

/// \p prefix followed by \p index in decimal. Built by appending, because
/// GCC 12 reports `"v" + std::to_string(i)` (an insert at the front of the
/// temporary) as a -Wrestrict false positive.
inline std::string indexed_name(std::string_view prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace kertbn
