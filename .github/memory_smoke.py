"""Run one command in a child process; check its exit code and peak RSS.

    python .github/memory_smoke.py EXIT_CODE CEILING_MB COMMAND [ARG ...]

Every "{out}" in an argument becomes a temporary directory, removed
afterwards.  The peak is RUSAGE_CHILDREN's ru_maxrss, so it reads the
command alone only when this script runs in a fresh process, as each CI
step does.  Exits 1 if the exit code differs or the peak reaches the
ceiling.
"""

import resource
import subprocess
import sys
import tempfile


def main(argv: list[str]) -> int:
    want, ceiling, command = int(argv[0]), float(argv[1]), argv[2:]
    with tempfile.TemporaryDirectory() as out:
        code = subprocess.call([arg.replace("{out}", out) for arg in command])
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit code {code}, peak RSS {rss_mb:.0f} MB")
    if code != want:
        print(f"error: exit code {code}, expected {want}")
        return 1
    if not rss_mb < ceiling:
        print(f"error: peak RSS {rss_mb:.0f} MB, ceiling {ceiling:g} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
