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

std::optional<std::vector<PolicyKind>>
policiesFromList(std::string_view list)
{
    std::vector<PolicyKind> kinds;
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const auto kind = policyFromName(list.substr(0, comma));
        if (!kind)
            return std::nullopt;
        kinds.push_back(*kind);
        list.remove_prefix(comma == std::string_view::npos ? list.size()
                                                           : comma + 1);
    }
    if (kinds.empty())
        return std::nullopt;
    return kinds;
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
