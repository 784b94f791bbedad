// perfbench_harness — the benchmark's in-process half. perfbench/run.py
// calls one subcommand per step and reads the JSON it writes:
//   gen-images  --seed --out=FILE                  images CSV (untimed)
//   gen-serve   --seed --out=DIR [shape flags]     serve protocol files
//   batch       --csv --seconds --cost-model ...   batch_images10k
//   replay      --dir --script --cost-model ...    serve replay + checks
#include <iostream>
#include <string>

#include "subcommands.h"

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "gen-images") return perfbench::GenImages(argc - 1, argv + 1);
  if (command == "gen-serve") return perfbench::GenServe(argc - 1, argv + 1);
  if (command == "batch") return perfbench::RunBatch(argc - 1, argv + 1);
  if (command == "replay") return perfbench::RunReplay(argc - 1, argv + 1);
  std::cerr << "usage: perfbench_harness gen-images|gen-serve|batch|replay "
               "[--flags]\n";
  return 2;
}
