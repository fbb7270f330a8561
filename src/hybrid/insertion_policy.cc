#include "hybrid/insertion_policy.hh"

namespace hllc::hybrid
{

std::string_view
policyName(PolicyKind kind)
{
    return policySpec(kind).name;
}

std::optional<PolicyKind>
policyFromName(std::string_view name)
{
    for (const PolicySpec &spec : policyTable) {
        if (spec.name == name)
            return spec.kind;
    }
    return std::nullopt;
}

InsertionPolicy::InsertionPolicy(PolicyKind kind, const PolicyParams &params)
    : spec_(policySpec(kind)), tapThreshold_(params.tapThreshold),
      thPercent_(spec_.thTw == ThTwSource::Params ? params.thPercent : 0.0),
      twPercent_(spec_.thTw == ThTwSource::Params ? params.twPercent : 5.0)
{
}

std::unique_ptr<InsertionPolicy>
InsertionPolicy::create(PolicyKind kind, const PolicyParams &params)
{
    return std::make_unique<InsertionPolicy>(kind, params);
}

} // namespace hllc::hybrid
