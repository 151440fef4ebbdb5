# Copies the artifact set of an --obs-out dir and changes the manifest's
# lineage.emitted (appends a digit), so obscheck's manifest-vs-audit.bin
# cross-check has a mismatch to catch.
#
#   cmake -DSRC=<obs-out dir> -DDST=<copy dir> -P tamper_manifest_lineage.cmake
file(REMOVE_RECURSE ${DST})
file(MAKE_DIRECTORY ${DST})
foreach(artifact manifest.json metrics.json trace.json audit.bin timeline.bin)
  file(COPY ${SRC}/${artifact} DESTINATION ${DST})
endforeach()
file(READ ${DST}/manifest.json text)
# "runs" is followed by "emitted" only in the lineage block; the stage
# named "emitted" inside lineage.terminal is left alone.
string(REGEX REPLACE "(\"runs\": [0-9]+,[\r\n ]*\"emitted\": [0-9]+)" "\\19"
  tampered "${text}")
if(tampered STREQUAL text)
  message(FATAL_ERROR "no lineage.emitted in ${SRC}/manifest.json")
endif()
file(WRITE ${DST}/manifest.json "${tampered}")
