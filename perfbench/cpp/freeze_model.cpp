// Regenerates the benchmark's frozen checkpoint: the core::Pipeline
// Wisdom-Ansible-Multi 350M fine-tune that wisdom_serve serves, saved with
// its tokenizer so the benchmark loads one self-contained file.
//
// Usage (from the repository root, after building the perfbench package):
//   .bench_build/perfbench/perfbench_freeze --seed 2023 \
//       --out perfbench/model/wisdom-ansible-multi-350m.ckpt
//
// Training is deterministic for a given seed, compiler and CPU feature set;
// the pipeline's intermediate checkpoints go to --cache-dir when given.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.hpp"
#include "model/checkpoint.hpp"
#include "util/log.hpp"

using namespace wisdom;

int main(int argc, char** argv) {
  std::string out;
  std::string cache_dir;
  core::PipelineConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string arg = argv[i];
    if (arg == "--out") out = argv[i + 1];
    else if (arg == "--seed")
      config.seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (arg == "--cache-dir") cache_dir = argv[i + 1];
    else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: %s --out FILE [--seed N] [--cache-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  util::set_log_level(util::LogLevel::Info);
  config.cache_dir = cache_dir;
  core::Pipeline pipeline(config);
  const text::BpeTokenizer& tokenizer = pipeline.tokenizer();
  model::Transformer model =
      pipeline.finetuned(core::PretrainMix::WisdomAnsibleMulti,
                         model::SizeClass::S350M, {});
  if (!model::save_checkpoint_file(out, model, tokenizer.serialize())) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (seed %llu)\n", out.c_str(),
              static_cast<unsigned long long>(config.seed));
  return 0;
}
