"""Domain checks and range guards for the expensive operations.

A domain check (require) refuses inputs that have no meaning, such as a
size below 1, and is always on.  Every guarded entry point also refuses
inputs beyond the tested range unless TLBGRAM_ALLOW_LARGE is set in the
environment; a cached one (lru_cache) checks only on a miss, so a result
computed under the override is returned after it is unset.  Overriding
the guards is unsupported: nothing breaks mathematically, but run times
and memory are untested out there.
"""

import os


def allow_large() -> bool:
    return os.environ.get("TLBGRAM_ALLOW_LARGE", "") not in ("", "0")


def require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def guard(ok: bool, what: str) -> None:
    if not ok and not allow_large():
        raise ValueError(
            f"{what}; set TLBGRAM_ALLOW_LARGE=1 to override (unsupported)"
        )
