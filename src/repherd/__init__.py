"""Exact decision machinery for representation-hereditary bound quiver algebras."""

__version__ = "0.1.0"
