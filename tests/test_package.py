import importlib
import pkgutil


def test_exports_exist():
    """Importing the package runs every import in its ``__init__``; then every
    module imports and every name in its ``__all__`` exists. A name left
    behind by a deletion fails here rather than in a user's import."""
    package = importlib.import_module("graphcube")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"graphcube.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"graphcube.{info.name}.__all__ names {missing}"
