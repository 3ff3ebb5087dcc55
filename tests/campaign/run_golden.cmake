# Rerun one campaign preset and diff its summary against the checked-in
# golden baseline. Invoked by ctest:
#   cmake -DCAMPAIGN=<solarcore_campaign> -DGOLDEN_CHECK=<golden_check>
#         -DPRESET=full -DGOLDEN=<baseline.json> -DOUT=<summary.json>
#         -P run_golden.cmake
execute_process(COMMAND "${CAMPAIGN}" --preset=${PRESET} --out=${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "solarcore_campaign --preset=${PRESET} failed: ${rc}")
endif()
execute_process(COMMAND "${GOLDEN_CHECK}" --check "${GOLDEN}" "${OUT}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT} drifted from ${GOLDEN}")
endif()
