# Test driver for the bench_json_artifact ctest entry: run one bench
# binary in --json mode, then validate the artifact against the
# schema.  Invoked as
#   cmake -DBENCH=... -DPYTHON=... -DVALIDATOR=... -DOUT=... -P this
execute_process(
    COMMAND ${BENCH} --json ${OUT}
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --json failed (rc=${bench_rc})")
endif()
execute_process(
    COMMAND ${PYTHON} ${VALIDATOR} ${OUT}
    RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
    message(FATAL_ERROR "schema validation failed (rc=${validate_rc})")
endif()
