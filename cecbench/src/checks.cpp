#include "checks.hpp"

#include "util/rng.hpp"

namespace cecbench {

std::vector<std::uint64_t> naive_eval(const sg::net::Network& network,
                                      std::span<const std::uint64_t> pi_words) {
  std::vector<std::uint64_t> values(network.num_nodes(), 0);
  for (std::size_t i = 0; i < network.num_pis(); ++i)
    values[network.pis()[i]] = pi_words[i];
  for (sg::net::NodeId id : network.topological_order()) {
    const sg::net::Node& node = network.node(id);
    switch (node.kind) {
      case sg::net::NodeKind::kPi:
        break;
      case sg::net::NodeKind::kConstant:
        values[id] = node.constant_value ? ~std::uint64_t{0} : 0;
        break;
      case sg::net::NodeKind::kPo:
        values[id] = values[node.fanins[0]];
        break;
      case sg::net::NodeKind::kLut: {
        std::uint64_t word = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
          std::uint32_t index = 0;
          for (std::size_t k = 0; k < node.fanins.size(); ++k)
            index |= static_cast<std::uint32_t>((values[node.fanins[k]] >> bit) & 1u) << k;
          word |= static_cast<std::uint64_t>(node.function.evaluate(index)) << bit;
        }
        values[id] = word;
        break;
      }
    }
  }
  return values;
}

std::optional<std::size_t> first_differing_output(const sg::aig::Aig& a,
                                                  const sg::aig::Aig& b,
                                                  const std::vector<bool>& pis) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos() ||
      pis.size() != a.num_pis())
    return std::nullopt;
  std::vector<std::uint64_t> words(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) words[i] = pis[i] ? 1u : 0u;
  const std::vector<std::uint64_t> out_a = a.simulate_words(words);
  const std::vector<std::uint64_t> out_b = b.simulate_words(words);
  for (std::size_t o = 0; o < a.num_pos(); ++o)
    if (((out_a[o] ^ out_b[o]) & 1u) != 0) return o;
  return std::nullopt;
}

bool pairs_agree(const sg::net::Network& network,
                 std::span<const std::pair<sg::net::NodeId, sg::net::NodeId>> pairs,
                 std::uint64_t seed, std::size_t words) {
  if (pairs.empty()) return true;
  sg::util::Rng rng(sg::util::splitmix64(seed ^ 0x9a125u));
  std::vector<std::uint64_t> pi_words(network.num_pis());
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t& word : pi_words) word = rng();
    const std::vector<std::uint64_t> values = naive_eval(network, pi_words);
    for (const auto& [x, y] : pairs)
      if (values[x] != values[y]) return false;
  }
  return true;
}

}  // namespace cecbench
