"""Resolution of the named-kind knobs (``REPRO_FIDELITY``,
``REPRO_BACKEND``).

Every knob follows one rule: an explicit kind wins, otherwise the
environment variable decides, otherwise the default.  Environment
values are stripped and lowercased, and a blank value means unset.
Anything outside the valid set raises :class:`KnobError` rather than
silently changing what is being simulated.

Stdlib-only on purpose: both :mod:`repro.dram` and :mod:`repro.sim`
import it, so it must not import either.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence


class KnobError(ValueError):
    """A knob holds a value outside its valid set."""


def resolve_knob(env_var: str, valid: Sequence[str], default: str,
                 kind: Optional[str] = None) -> str:
    """Resolve ``kind`` against ``valid``, consulting ``env_var`` when
    ``kind`` is None.

    The error names the knob (``REPRO_FIDELITY`` -> "fidelity"), the
    value and the valid set, and names ``env_var`` only when the value
    came from it.
    """
    from_env = False
    if kind is None:
        env = os.environ.get(env_var, "").strip().lower()
        from_env = bool(env)
        kind = env or default
    if kind not in valid:
        raise KnobError("unknown {} {!r}{}; valid: {}".format(
            env_var.split("_", 1)[-1].lower(), kind,
            " in the {} environment variable".format(env_var)
            if from_env else "",
            ", ".join(valid)))
    return kind
