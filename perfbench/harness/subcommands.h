// Subcommands of perfbench_harness (one per source file).
#ifndef PERFBENCH_HARNESS_SUBCOMMANDS_H_
#define PERFBENCH_HARNESS_SUBCOMMANDS_H_

namespace perfbench {

int GenImages(int argc, char** argv);  // gen.cc
int GenServe(int argc, char** argv);   // gen.cc
int RunBatch(int argc, char** argv);   // batch.cc
int RunReplay(int argc, char** argv);  // replay.cc

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SUBCOMMANDS_H_
