def pytest_collection_modifyitems(session, config, items):
    """Run the slow acceptance module last, so a time-limited run of the
    whole suite reaches every unit test first.  The sort is stable: the
    order within each group is unchanged."""
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
