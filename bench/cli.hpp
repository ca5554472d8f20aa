// Strict kernel and class names for every command-line front end: the bench
// harnesses (through bench_common.hpp) and the examples. A name outside the
// valid set exits 2 and prints that set instead of silently running some
// other kernel or class. Depends only on the NPB kernel table, so examples
// that link no engine can share it.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "npb/npb.hpp"
#include "support/options.hpp"

namespace lpomp::bench {

/// Parses --klass=; an unknown class exits 2 with the valid set instead of
/// silently running class R.
inline npb::Klass klass_by_name(const std::string& name) {
  for (npb::Klass k : {npb::Klass::S, npb::Klass::W, npb::Klass::A,
                       npb::Klass::B, npb::Klass::R}) {
    if (name == npb::klass_name(k)) return k;
  }
  std::cerr << "unknown class '" << name
            << "' in --klass= (valid: S,W,A,B,R)\n";
  std::exit(2);
}

/// Canonical comma-joined kernel list ("BT,CG,FT,SP,MG,GUPS,GT,PC") — the
/// --kernels= default and the valid set shown on a parse error.
inline std::string all_kernel_names() {
  std::string names;
  for (npb::Kernel k : npb::all_kernels()) {
    if (!names.empty()) names += ',';
    names += npb::kernel_name(k);
  }
  return names;
}

/// Parses one kernel name given as `flag` (e.g. "--kernel=CG"); an unknown
/// name exits 2 with the valid set.
inline npb::Kernel kernel_by_name(const std::string& name,
                                  const std::string& flag = "--kernel=") {
  for (npb::Kernel k : npb::all_kernels()) {
    if (name == npb::kernel_name(k)) return k;
  }
  std::cerr << "unknown kernel '" << name << "' in " << flag
            << " (valid: " << all_kernel_names() << ")\n";
  std::exit(2);
}

/// Parses --kernels= as an exact comma-separated list ("CG,FT"). Unknown or
/// empty tokens abort with a clear message instead of being silently
/// dropped; kernels run in canonical (all_kernels) order, deduplicated.
inline std::vector<npb::Kernel> kernels_from(const Options& opts) {
  const std::string list = opts.get("kernels", all_kernel_names());
  const std::vector<npb::Kernel> all = npb::all_kernels();
  std::vector<bool> wanted(all.size(), false);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const npb::Kernel k =
        kernel_by_name(list.substr(start, comma - start), "--kernels=" + list);
    start = comma + 1;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i] == k) wanted[i] = true;
    }
  }
  std::vector<npb::Kernel> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (wanted[i]) out.push_back(all[i]);
  }
  return out;
}

}  // namespace lpomp::bench
