import owpnlab


def test_public_names():
    names = owpnlab.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        assert getattr(owpnlab, name) is not None, name
    for gone in ("FisherState", "riccati_step", "transmit", "sample_phase_path"):
        assert not hasattr(owpnlab, gone)
