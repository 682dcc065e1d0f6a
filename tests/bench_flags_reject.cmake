# Every bench driver built on bench/bench_flags.hpp must reject a
# misspelled flag and a malformed value with its usage text and exit
# status 2, before doing any work (so this test is cheap).
#
# Run by CTest as: cmake -DBIN_DIR=<dir of the bench binaries> -P <this>
if(NOT BIN_DIR)
  message(FATAL_ERROR "BIN_DIR not set")
endif()

set(cases
  "comm_microbench --frmes 2"
  "comm_microbench --platform no_such_platform"
  "fig13_raytrace --frmes 2"
  "fig13_raytrace --size abc"
  "fig13_vorbis --frmes 2"
  "fig13_vorbis --frames abc"
  "fig13_vorbis --platform no_such_platform"
  "ifft_hw --frmes 2"
  "ifft_hw --platform no_such_platform"
  "partition_sweep --frmes 2"
  "partition_sweep --ray-size abc"
  "platform_sweep --frmes 2"
  "platform_sweep --frames abc"
  "strategy_compare --frmes 2"
  "strategy_compare --frames abc"
  "executor_matrix --frmes 2"
  "executor_matrix --frames abc")

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  list(POP_FRONT argv exe)
  execute_process(COMMAND "${BIN_DIR}/${exe}" ${argv}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "'${case}' exited '${rc}', expected 2\n${out}${err}")
    math(EXPR failures "${failures} + 1")
  elseif(NOT err MATCHES "usage: ${exe}")
    message(SEND_ERROR "'${case}' printed no usage text:\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
list(LENGTH cases n)
message(STATUS "${n} malformed invocations checked, ${failures} failed")
