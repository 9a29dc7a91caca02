"""Set-up probe, run in a fresh interpreter by run.py:

    python3 probe_setup.py SRC_DIR LEXICON_FILE

It imports gluesem from SRC_DIR and parses LEXICON_FILE, and prints one line:
the `perf_counter()` value when the import was done (the clock is shared by
all processes on the machine), the reference-loop time right after the
import, the seconds the lexicon parse took, and the reference-loop time right
after that. The reference loops run off the clock, between the two timed
parts, so the caller can scale each part by the machine speed next to it.
"""

import sys
from pathlib import Path
from time import perf_counter

src, lexicon_path = sys.argv[1:3]
sys.path.insert(0, src)

import gluesem  # noqa: E402

imported = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402

after_import = calibrate.reference_median()
start = perf_counter()
with open(lexicon_path, encoding="utf-8") as handle:
    lexicon = gluesem.parse_lexicon(handle.read(), source=lexicon_path)
parse_s = perf_counter() - start
print(imported, after_import, parse_s, calibrate.reference_median(), len(lexicon), flush=True)
