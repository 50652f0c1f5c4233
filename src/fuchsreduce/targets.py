"""Classical second-order target equations reached after reduction."""

from __future__ import annotations

from dataclasses import dataclass

from .config import complex_json

__all__ = ["ClassicalTarget"]


@dataclass(frozen=True)
class ClassicalTarget:
    """A deformation-free normal form.

    kind:
      * ``airy``             w'' = xi w after tau = scale * xi
      * ``whittaker``        v'' = (1/4 - kappa/tau + (4 mu^2 - 1)/(4 tau^2)) v
      * ``constant``         w'' = c w                (Q identically -c)
      * ``linear_potential`` w'' = (a + b tau) w      (Q = -(a + b tau))
      * ``none``             no recognized normal form
    """

    kind: str
    scale: complex | None = None      # airy
    kappa: complex | None = None      # whittaker
    mu_sq: complex | None = None      # whittaker
    c: complex | None = None          # constant
    a: complex | None = None          # linear_potential
    b: complex | None = None          # linear_potential

    @staticmethod
    def airy(scale) -> "ClassicalTarget":
        return ClassicalTarget("airy", scale=complex(scale))

    @staticmethod
    def whittaker(kappa, mu_sq) -> "ClassicalTarget":
        return ClassicalTarget("whittaker", kappa=complex(kappa), mu_sq=complex(mu_sq))

    @staticmethod
    def constant(c) -> "ClassicalTarget":
        return ClassicalTarget("constant", c=complex(c))

    @staticmethod
    def linear_potential(a, b) -> "ClassicalTarget":
        return ClassicalTarget("linear_potential", a=complex(a), b=complex(b))

    @staticmethod
    def none() -> "ClassicalTarget":
        return ClassicalTarget("none")

    def parameters(self) -> dict[str, complex]:
        """The defining parameters, by kind."""
        if self.kind == "airy":
            return {"scale": self.scale}
        if self.kind == "whittaker":
            return {"kappa": self.kappa, "mu_sq": self.mu_sq}
        if self.kind == "constant":
            return {"c": self.c}
        if self.kind == "linear_potential":
            return {"a": self.a, "b": self.b}
        return {}

    def agrees_with(self, other: "ClassicalTarget", tol: float = 1e-6) -> bool:
        if self.kind != other.kind:
            return False
        mine, theirs = self.parameters(), other.parameters()
        for key, val in mine.items():
            ov = theirs.get(key)
            if ov is None:
                return False
            if abs(val - ov) > tol * (1 + abs(val)):
                return False
        return True

    def to_json(self) -> dict:
        return {"kind": self.kind,
                **{key: complex_json(val) for key, val in self.parameters().items()}}
