def test_hypothesis_report_import_passes_the_warning_filters():
    # Hypothesis imports this (libcst, then mypy_extensions, which warns) to
    # report a falsifying example; a warning raised there hides the example
    import hypothesis.extra._patching  # noqa: F401
