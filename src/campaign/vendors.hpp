// The TCP vendor table: every vendor name a spec, a cell or a CLI may use,
// and the TcpProfile it selects. Spec parsing, the runner, the suite
// planner and the CLIs all look names up here, so an unknown name is an
// error everywhere instead of quietly running SunOS under the typo's label.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tcp/profile.hpp"

namespace pfi::campaign {

/// Every vendor name, in profiles::all_vendors() order with the x-Kernel
/// reference stack last.
const std::vector<std::string>& vendor_names();

/// The four vendor stacks of the paper (vendor_names() minus the
/// reference): the vendor axis of a conformance suite.
const std::vector<std::string>& suite_vendors();

/// "sunos|aix|next|solaris|reference", for error messages and usage.
std::string vendor_choices();

/// The profile `name` selects, or nullopt for an unknown name.
std::optional<tcp::TcpProfile> vendor_profile(std::string_view name);

}  // namespace pfi::campaign
