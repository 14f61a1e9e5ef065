package a

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	Configure(Options{OwnTestSet: 1})
}
