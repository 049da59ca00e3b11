#include "inputs.h"

#include <charconv>

#include "dataset/corpus.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace aw4a;

std::string host_of(std::size_t site) { return "site-" + std::to_string(site) + ".example"; }

std::string wire(const std::string& host, std::vector<net::HttpHeader> hints) {
  net::HttpRequest request;
  request.headers.push_back({"Host", host});
  for (net::HttpHeader& hint : hints) request.headers.push_back(std::move(hint));
  return net::serialize(request);
}

/// Every fourth site runs the rANS backend plus both ultra-low tiers; the
/// other three keep the paper-default config (tiers {1.25, 1.5, 3, 6}, Qt
/// 0.9, HBS, Huffman).
core::DeveloperConfig config_for(std::size_t site, bool measure_qfs) {
  core::DeveloperConfig config;
  config.measure_qfs = measure_qfs;
  if (site % 4 == 3) {
    config.entropy_backend = imaging::EntropyBackend::kRans;
    config.ultra_low.text_only = true;
    config.ultra_low.markup_rewrite = true;
  }
  return config;
}

/// The data-saving hint of one request: 75% of all requests carry a geo
/// hint, 15% a savings preference. Only called for data-saving requests, so
/// the split is renormalised over those 90%.
std::vector<net::HttpHeader> saving_hints(Rng& rng,
                                          const std::vector<const dataset::Country*>& countries) {
  std::vector<net::HttpHeader> hints{{"Save-Data", "on"}};
  if (rng.uniform() < 0.75 / 0.90) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(countries.size()) - 1));
    hints.push_back({"X-Geo-Country", std::string(countries[pick]->code)});
  } else {
    hints.push_back({"AW4A-Savings", std::to_string(rng.uniform_int(10, 90))});
  }
  return hints;
}

}  // namespace

Inputs make_inputs(std::uint64_t seed, bool measure_qfs) {
  const Rng root(seed);
  Inputs inputs;
  const auto countries = dataset::countries_with_prices();

  // Corpus: stratified page sizes over 150-400 KB (one stratum per site, in
  // shuffled order), plans cycling DO/DVLU/DVHU, cross-site duplicated assets.
  dataset::CorpusGenerator generator(dataset::CorpusOptions{
      .seed = kCorpusSeed,
      .rich = true,
      .cross_site_duplication_rate = 0.3,
  });
  Rng page_rng = Rng(kCorpusSeed).fork("pages");
  std::vector<std::size_t> stratum(kSites);
  for (std::size_t i = 0; i < kSites; ++i) stratum[i] = i;
  page_rng.shuffle(stratum);
  for (std::size_t i = 0; i < kSites; ++i) {
    const double kb = 150.0 + 250.0 * (static_cast<double>(stratum[i]) + page_rng.uniform()) /
                                  static_cast<double>(kSites);
    inputs.sites.push_back(serving::OriginSite{
        host_of(i),
        generator.make_page(page_rng, from_kb(kb), generator.global_profile()),
        config_for(i, measure_qfs),
        net::kAllPlans[i % net::kAllPlans.size()],
    });
  }

  // Zipf(1.0) popularity over a fixed rank permutation of the sites: which
  // sites are hot belongs to the site population, like the corpus.
  Rng popularity_rng = Rng(kCorpusSeed).fork("popularity");
  std::vector<std::size_t> by_rank(kSites);
  for (std::size_t i = 0; i < kSites; ++i) by_rank[i] = i;
  popularity_rng.shuffle(by_rank);
  const auto draw_site = [&](Rng& rng) { return by_rank[rng.zipf(kSites, kZipfExponent) - 1]; };

  Rng stream_rng = root.fork("stream");
  inputs.stream.reserve(kStreamRequests);
  for (std::size_t i = 0; i < kStreamRequests; ++i) {
    const std::size_t site = draw_site(stream_rng);
    if (stream_rng.uniform() < 0.90) {
      inputs.stream.push_back(wire(host_of(site), saving_hints(stream_rng, countries)));
    } else {
      inputs.stream.push_back(wire(host_of(site), {}));
    }
  }

  Rng build_rng = root.fork("builds");
  for (std::size_t site = 0; site < kSites; ++site) {
    inputs.build_requests.push_back(wire(host_of(site), saving_hints(build_rng, countries)));
  }

  Rng push_rng = root.fork("pushes");
  for (int i = 0; i < 4096; ++i) inputs.pushes.push_back(draw_site(push_rng));

  for (std::size_t site = 0; site < kSites; ++site) {
    for (const dataset::Country* country : countries) {
      inputs.matrix.push_back(wire(
          host_of(site), {{"Save-Data", "on"}, {"X-Geo-Country", std::string(country->code)}}));
    }
    for (const int pct : kMatrixSavingsLevels) {
      inputs.matrix.push_back(
          wire(host_of(site), {{"Save-Data", "on"}, {"AW4A-Savings", std::to_string(pct)}}));
    }
    inputs.matrix.push_back(wire(host_of(site), {}));
  }
  return inputs;
}

std::size_t site_of(const Inputs& inputs, const aw4a::net::HttpRequest& request) {
  const auto host = request.host();
  constexpr std::string_view kPrefix = "site-";
  if (!host || host->rfind(kPrefix, 0) != 0) return kSites;
  std::size_t site = kSites;
  const char* begin = host->data() + kPrefix.size();
  const auto [end, ec] = std::from_chars(begin, host->data() + host->size(), site);
  if (ec != std::errc() || std::string_view(end) != ".example" || site >= inputs.sites.size()) {
    return kSites;
  }
  return site;
}

}  // namespace perfbench
