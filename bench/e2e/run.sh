#!/usr/bin/env bash
# Entry point of the eqc end-to-end benchmark: builds bench/e2e into
# build-e2e/ and runs it. See README.md for the options.
exec python3 "$(dirname "$0")/run.py" "$@"
