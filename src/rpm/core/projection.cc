#include "rpm/core/projection.h"

namespace rpm {

std::vector<SuffixProjection> ProjectSuffixItems(TsPrefixTree* tree) {
  std::vector<SuffixProjection> projections;
  for (size_t rank = tree->num_ranks(); rank-- > 0;) {
    if (tree->HeadOfRank(rank) == nullptr) continue;
    SuffixProjection projection;
    projection.rank = static_cast<uint32_t>(rank);
    // The nodes the sequential miner collects for this rank (rp_growth.cc),
    // with their ts-lists copied before push-up moves them to the parents.
    for (const TsPrefixTree::Node* n = tree->HeadOfRank(rank); n != nullptr;
         n = n->next_link) {
      projection.nodes.push_back(n);
      projection.ts.insert(projection.ts.end(), n->ts_list.begin(),
                           n->ts_list.end());
      projection.ts_end.push_back(static_cast<uint32_t>(projection.ts.size()));
    }
    tree->PushUpAndRemove(rank);
    if (projection.ts.empty()) continue;  // No timestamps at this rank.
    projections.push_back(std::move(projection));
  }
  return projections;
}

}  // namespace rpm
