# Pins the bytes of the CLI's desktop and display-wall frames.
#
#   cmake -DCLI=<forestview_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_frames_golden.cmake
#
# Generates the 400-gene compendium with seed 11, clusters three of its
# datasets (so gene and array dendrograms draw), renders the 1600x1200
# desktop frame and the 6x4-tile wall frame, and compares each PPM's SHA-256
# with the value below. Every rendering change must keep these bytes; a
# change that means to alter the frames updates the hashes with it.
set(FV_DESKTOP_SHA256
    bbbae25cfdf6979394623349e957a7b9d50a5e5ddfcfdb38a97bbcbdb3b42bd9)
set(FV_WALL_SHA256
    3b78e01e0813def942ab644499887603099c6715011ec0631ed13807639c05cd)

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "forestview_cli ${ARGN} exited ${code}\n${out}${err}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(data "${WORK_DIR}/compendium")
run_cli(generate "${data}" --genes 400 --seed 11)
foreach(dataset stress_1 nutrient_1 knockout_1)
  run_cli(cluster "${data}" ${dataset})
endforeach()
run_cli(render "${data}" "${WORK_DIR}/desktop.ppm")
run_cli(wall "${data}" "${WORK_DIR}/wall.ppm")

set(failed FALSE)
foreach(frame DESKTOP WALL)
  string(TOLOWER ${frame} name)
  file(SHA256 "${WORK_DIR}/${name}.ppm" got)
  if(NOT got STREQUAL FV_${frame}_SHA256)
    message(SEND_ERROR
            "${name}.ppm SHA-256 ${got}, pinned ${FV_${frame}_SHA256}")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "CLI frames differ from the pinned bytes")
endif()
message(STATUS "desktop and wall frames match their pinned SHA-256")
