// Micro-benchmarks for the data pipeline: synthetic generation,
// partitioning, batch gathering, augmentation, and int8 quantization.
#include <benchmark/benchmark.h>

#include "comm/compression.hpp"
#include "common/rng.hpp"
#include "data/augment.hpp"
#include "data/batch_iterator.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace hadfl;

const data::TrainTestSplit& shared_split() {
  static const data::TrainTestSplit split = [] {
    data::SyntheticConfig cfg;
    cfg.train_samples = 2048;
    cfg.test_samples = 256;
    cfg.image_size = 8;
    return data::make_synthetic_cifar(cfg);
  }();
  return split;
}

void BM_SyntheticGeneration(benchmark::State& state) {
  data::SyntheticConfig cfg;
  cfg.train_samples = static_cast<std::size_t>(state.range(0));
  cfg.test_samples = 64;
  cfg.image_size = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::make_synthetic_cifar(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(256)->Arg(1024);

void BM_PartitionIid(benchmark::State& state) {
  const auto& split = shared_split();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::partition_iid(split.train, 8, rng));
  }
}
BENCHMARK(BM_PartitionIid);

void BM_PartitionDirichlet(benchmark::State& state) {
  const auto& split = shared_split();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::partition_dirichlet(split.train, 8, 0.3, rng));
  }
}
BENCHMARK(BM_PartitionDirichlet);

void BM_BatchGather(benchmark::State& state) {
  const auto& split = shared_split();
  std::vector<std::size_t> idx(split.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  data::BatchIterator it(split.train, idx, 64, Rng(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(it.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BatchGather);

void BM_Augmentation(benchmark::State& state) {
  const auto& split = shared_split();
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  data::Batch batch = split.train.gather(idx);
  data::Augmentor aug((data::AugmentConfig()));
  Rng rng(4);
  for (auto _ : state) {
    aug.apply(batch, rng);
    benchmark::DoNotOptimize(batch.x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Augmentation);

void BM_QuantizeInt8(benchmark::State& state) {
  std::vector<float> x(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::quantize_int8(x));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_QuantizeInt8)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
