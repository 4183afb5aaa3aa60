"""The shared knob resolver behind ``REPRO_FIDELITY`` and
``REPRO_BACKEND``."""

import pytest

from repro.dram.backend import (BACKEND_ENV_VAR, VALID_BACKENDS,
                                resolve_backend)
from repro.knobs import KnobError
from repro.sim.fidelity import (FIDELITY_ENV_VAR, VALID_FIDELITIES,
                                resolve_fidelity)


@pytest.mark.parametrize("env_var, valid, default, resolve", [
    (FIDELITY_ENV_VAR, VALID_FIDELITIES, "cycle", resolve_fidelity),
    (BACKEND_ENV_VAR, VALID_BACKENDS, "ddr4", resolve_backend),
], ids=[FIDELITY_ENV_VAR, BACKEND_ENV_VAR])
def test_knob_resolution(monkeypatch, env_var, valid, default, resolve):
    other = next(kind for kind in valid if kind != default)
    # Unset and blank both mean the default.
    monkeypatch.delenv(env_var, raising=False)
    assert resolve() == default
    monkeypatch.setenv(env_var, "  \n")
    assert resolve() == default
    # Whitespace and case are normalised.
    monkeypatch.setenv(env_var, "  {} ".format(other.upper()))
    assert resolve() == other
    # A typo names the value, the variable and the valid set...
    monkeypatch.setenv(env_var, other + "x")
    with pytest.raises(KnobError) as err:
        resolve()
    message = str(err.value)
    assert repr(other + "x") in message and env_var in message
    for kind in valid:
        assert kind in message
    # ...an explicit kind wins over a broken environment...
    assert resolve(default) == default
    # ...and an explicit bad kind does not blame the variable.
    with pytest.raises(KnobError) as err:
        resolve("bogus")
    assert "'bogus'" in str(err.value)
    assert env_var not in str(err.value)
