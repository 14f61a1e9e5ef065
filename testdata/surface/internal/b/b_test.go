package b

import (
	"testing"

	"fixture/internal/a"
)

func TestOther(t *testing.T) { a.OtherTestOnly() }
