# Runs a one-cell scenario sweep over engine.seed=20261017 and checks that
# BENCH_scenario.json records the seed exactly (%g would print 2.0261e+07).
#
#   cmake -DSWEEP_RUNNER=<path> -DSCENARIO=<ini> -DOUT_DIR=<dir> \
#         -P check_sweep_params.cmake
execute_process(
  COMMAND ${SWEEP_RUNNER} --scenario=${SCENARIO} --sweep=engine.seed=20261017
          --threads=1 --out-dir=${OUT_DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_runner exited with ${rc}")
endif()
file(READ ${OUT_DIR}/BENCH_scenario.json report)
string(FIND "${report}" "\"engine.seed\": 20261017}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "BENCH_scenario.json does not hold engine.seed 20261017")
endif()
