# Test driver for the bench_jobs_identical ctest entry: run one bench
# binary serially (--jobs 1) and through the worker pool (--jobs 4)
# and require byte-identical stdout AND byte-identical JSON artifacts.
# This is the executable statement of the sweep engine's contract:
# results are collected by point index, never by completion order.
# Invoked as
#   cmake -DBENCH=... -DOUT_DIR=... -P this
file(MAKE_DIRECTORY ${OUT_DIR})
foreach(jobs 1 4)
    execute_process(
        COMMAND ${BENCH} --jobs ${jobs}
                --json ${OUT_DIR}/jobs${jobs}.json
        RESULT_VARIABLE bench_rc
        OUTPUT_FILE ${OUT_DIR}/jobs${jobs}.txt)
    if(NOT bench_rc EQUAL 0)
        message(FATAL_ERROR
                "${BENCH} --jobs ${jobs} failed (rc=${bench_rc})")
    endif()
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/jobs1.txt ${OUT_DIR}/jobs4.txt
    RESULT_VARIABLE text_rc)
if(NOT text_rc EQUAL 0)
    message(FATAL_ERROR "--jobs 1 and --jobs 4 stdout differ")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/jobs1.json ${OUT_DIR}/jobs4.json
    RESULT_VARIABLE json_rc)
if(NOT json_rc EQUAL 0)
    message(FATAL_ERROR "--jobs 1 and --jobs 4 JSON artifacts differ")
endif()
