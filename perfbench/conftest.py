"""Put the package and the benchmark modules on the path for the benchmark's own tests."""

import run

run.bootstrap()
