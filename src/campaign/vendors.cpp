#include "campaign/vendors.hpp"

namespace pfi::campaign {

namespace {

struct Vendor {
  const char* name;
  tcp::TcpProfile (*profile)();
};

// profiles::all_vendors() order, the x-Kernel reference stack last.
constexpr Vendor kVendors[] = {
    {"sunos", tcp::profiles::sunos_4_1_3},
    {"aix", tcp::profiles::aix_3_2_3},
    {"next", tcp::profiles::next_mach},
    {"solaris", tcp::profiles::solaris_2_3},
    {"reference", tcp::profiles::xkernel_reference},
};

}  // namespace

const std::vector<std::string>& vendor_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Vendor& v : kVendors) out.emplace_back(v.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& suite_vendors() {
  static const std::vector<std::string> suite(vendor_names().begin(),
                                              vendor_names().end() - 1);
  return suite;
}

std::string vendor_choices() {
  std::string out;
  for (const std::string& n : vendor_names()) {
    out += (out.empty() ? "" : "|") + n;
  }
  return out;
}

std::optional<tcp::TcpProfile> vendor_profile(std::string_view name) {
  for (const Vendor& v : kVendors) {
    if (name == v.name) return v.profile();
  }
  return std::nullopt;
}

}  // namespace pfi::campaign
