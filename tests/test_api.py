import streamuniq


def test_public_names_are_the_readme_api():
    # README's Python API, the type of its control= argument, the error
    # classes and the version; everything else is imported from its module
    assert sorted(streamuniq.__all__) == [
        "ConfigError", "DomainError", "ModelValidationError",
        "NonConvergenceError", "RadialGrid", "StepControl", "StepSizeUnderflowError",
        "StreamuniqError", "VorticityModel", "WindowCollapseError", "__version__",
        "continuity_sweep", "kernel_integral_all", "kernel_prefix", "picard_solve",
        "rk_solve", "run_uniqueness_analysis", "validate_hypotheses", "weighted_norm"]
    assert all(hasattr(streamuniq, name) for name in streamuniq.__all__)
