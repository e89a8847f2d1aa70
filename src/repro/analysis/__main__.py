"""``python -m repro.analysis [paths]`` — run simcheck, the static
analyzer (the CI entry); ``--help`` lists its flags."""

import sys

from repro.analysis.simcheck.engine import main

sys.exit(main())
